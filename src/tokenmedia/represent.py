"""The exact medium decision, and the contents, orientations and
positive-content representation read off it.

``decide_medium`` verifies the reverse pairing and reads the threshold
labels of ``_potentials``, the system's one labeling: one int per state,
built along the BFS tree, with a bit per value each token pair's net count
takes above its least.  That walk also tests M3 on every move; M2 and M4
are a separation test on the labels and a min/max of bit counts per pair.  A
medium's labels, relative to the least state, are its canonical
well-graded representation; any other system gets the first failing
check's witness.  A token system keeps its decision and no other derived
record; the decision of a system that passed M1 but is no medium keeps its
potentials, for ``check_axioms``, which reads M4 off straight sets where
the separation test fails.  ``contents``, ``orient_from_state``
and ``positive_content_family`` test bits of the decision's ints, and the
sets of ``alpha`` and ``family`` are built from the ints only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .cubes import _geodesic
from .errors import InputError
from .families import FamilyRepresentation, _bit_columns, _digits, _moves_separate
from .tokens import TokenSystem, reverse_defect


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
    for t in positive:
        if rev[t] in positive:
            raise InputError(f"tokens {t!r} and {rev[t]!r} cannot both be positive")
    return Orientation(positive, all_tokens - positive)


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
    which is only recorded.  The table is built on each call from the
    decision stored on ``ts``.  A system that is not a medium raises
    InputError.
    """
    if base is None:
        base = ts.states[0]
    elif not ts.has_state(base):
        raise InputError(f"unknown state id {base!r}")
    decision = _medium_decision(ts)
    table = {s: _content(decision, label) for s, label in zip(ts.states, decision.labels)}
    return ContentTable(base, table)


def _content(decision, label) -> frozenset[str]:
    """The content of a canonical label: per coordinate, its adding token if held, else its removing one."""
    return frozenset(map(tuple.__getitem__, decision.sides, _digits(label, len(decision.sides))))


def orient_from_state(ts: TokenSystem, s0: str) -> Orientation:
    """The orientation whose negative class is the content of s0, read off
    s0's canonical label alone, with no table of all contents.  A system
    that is not a medium raises InputError."""
    if not ts.has_state(s0):
        raise InputError(f"unknown state id {s0!r}")
    decision = _medium_decision(ts)
    negative = _content(decision, decision.labels[ts._index[s0]])
    return Orientation(frozenset(ts.tokens) - negative, negative)


def positive_content_family(ts: TokenSystem, orientation: Orientation) -> FamilyRepresentation:
    """The family of positive contents, isomorphic to the medium itself.

    Ground set is the positive token class; the intersection of the family
    is empty and its union is the whole ground.  The positive contents are
    the canonical labels of ``decide_medium`` after a translation and a
    renaming of coordinates, so they transport the action: s.t = v iff
    alpha(s).beta(t) = alpha(v).  A positive token that removes x holds
    exactly at the labels lacking x, so each label XOR the bits of such
    tokens is the positive content, bit x standing for x's positive token,
    and no set is built.  A system that is not a medium raises InputError.
    """
    rev = ts.reverse
    decision = _medium_decision(ts)
    pos = orientation.positive
    if pos | orientation.negative != frozenset(ts.tokens) or pos & orientation.negative:
        raise InputError("orientation must partition this system's tokens")
    if any((t in pos) == (rev[t] in pos) for t in ts.tokens):
        raise InputError("orientation must separate every token from its reverse")
    names = tuple(add if add in pos else remove for remove, add in decision.sides)
    flip = sum(1 << k for k, (remove, _) in enumerate(decision.sides) if remove in pos)
    return FamilyRepresentation(ground=tuple(t for t in ts.tokens if t in pos), names=names, states=ts.states,
                                labels=tuple(label ^ flip for label in decision.labels),
                                beta={t: (t, "add") if t in pos else (rev[t], "remove") for t in ts.tokens})


# --- the decision procedure -------------------------------------------------


@dataclass(frozen=True)
class MediumDecision(FamilyRepresentation):
    """The exact decision: on yes the canonical representation, bit k standing
    for coordinate "k" (``names`` is ``ground``) and ``sides[k]`` holding its
    removing and adding tokens; on no the first failing check's ``witness``,
    and ``potentials`` after M1, for ``check_axioms``."""

    is_medium: bool
    witness: Mapping | None = None
    sides: tuple[tuple[str, str], ...] = ()
    potentials: _Potentials | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        if not self.is_medium:
            return {"medium": False, "witness": dict(self.witness)}
        return {"medium": True, **FamilyRepresentation.to_json_dict(self)}


def _medium_decision(ts: TokenSystem) -> MediumDecision:
    """The decision of a medium; a system that is not one raises InputError."""
    decision = decide_medium(ts)
    if not decision.is_medium:
        raise InputError("contents need a medium; this system is not one")
    return decision


def decide_medium(ts: TokenSystem) -> MediumDecision:
    """Exact decision: is this token system a medium?

    By the representation theorem a medium is the add/remove system of a
    well graded family with one ground element per token pair, so the token
    pairs are its cube coordinates.  After the exact reverse-pairing check
    (M1) the decision reads the potentials of ``_potentials``: the system is
    a medium iff it is connected and M3, M2's separation test and M4 by
    min/max pass, for these are exact M2-M4 verdicts.  On no, the witness is
    that of the first failing check in that order, disconnection first (from
    the first state to the first state it does not reach): the first failing
    axiom of ``check_axioms``.  On yes the threshold labels have one bit per
    pair, and relative to the least state they are the canonical labels,
    kept as ints with bit k for coordinate "k", numbered in order of each
    pair's least edge.  The decision is stored on ``ts`` for later calls.
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
    ev = _potentials(ts)
    witness = ev.unreached or ev.m3 or ev.separation[0] or ev.bounds[0]
    if witness:
        return MediumDecision(False, witness=witness, potentials=ev)
    states, lab, pair, fields = ts.states, ev.lab, ev.pair, ev.fields
    least = {pair[t][0]: min((states[i], states[j]) if states[i] < states[j] else (states[j], states[i])
                             for i, j in ms)  # by M1 its reverse moves along the same edges
             for t, ms in ts._index_moves.items() if pair[t][1] > 0}
    rank = {x: r for r, x in enumerate(sorted(least, key=least.__getitem__))}
    base = lab[ts._index[min(states)]]  # the least state holds pair x's upper value iff base & fields[x]
    beta, sides, bit = {}, [["", ""] for _ in rank], {}
    for t in ts.tokens:  # t adds iff it moves its coordinate off the least state's value
        x, step = pair[t]
        adds = (step > 0) ^ (base & fields[x] != 0)
        sides[rank[x]][adds], bit[t] = t, 1 << rank[x]
        beta[t] = str(rank[x]), "add" if adds else "remove"
    labels = [0] * len(states)
    labels[0] = sum(1 << rank[x] for x, f in enumerate(fields) if (lab[0] ^ base) & f)
    for j in ev.comps[0][1:]:  # each label is its BFS parent's with one coordinate toggled
        u, t = ev.parent[j]
        labels[j] = labels[u] ^ bit[t]
    ground = tuple(map(str, range(len(rank))))
    return MediumDecision(True, sides=tuple(map(tuple, sides)), ground=ground, names=ground, states=states,
                          labels=tuple(labels), beta=beta)


# --- exact axioms from token-pair potentials ----------------------------------


@dataclass
class _Potentials:
    """The BFS facts of ``_potentials`` and the witnesses read off them (None
    where a check passes); ``separation`` and ``bounds`` hold one per
    component once ``_component_checks`` has run."""

    comps: list  # state indices per component, roots in state order, each in BFS order
    lab: list  # per state, its threshold label
    fields: list  # per token pair, the bits of its thresholds, over every component
    parent: list  # per state, (state index, token) of its tree move, None at a root
    out: list  # per state, its effective moves (target index, token), in token order
    pair: dict  # token -> (coordinate, +1 or -1)
    shapes: list = field(default_factory=list)  # per component, _label's (width, wide, toggles)
    unreached: dict | None = None  # M2 when the system is disconnected
    m3: dict | None = None
    separation: list = field(default_factory=list)
    bounds: list = field(default_factory=list)


def _potentials(ts: TokenSystem) -> _Potentials:
    """The potentials of a system that passed M1, with M3, and with M2's
    separation test and M4 by bounds if it is connected: the one labeling that
    ``decide_medium`` reads, and keeps in the decision of a system that is no
    medium, whose components ``_axiom_witnesses`` tests if it is disconnected.

    One BFS per component gives each state a potential: per token pair, the
    net steps along its tree path from the root, +1 for the pair's first
    token and -1 for its reverse.  ``_label`` writes it in unary thresholds,
    one bit per value a coordinate takes above its least in the component,
    so the bits a state holds in a pair's field count its coordinate from
    that least value, and L1 distance is Hamming distance.  A move agrees
    with the potentials iff its ends' labels differ in one bit of its pair's
    field, held at the target iff the token is the pair's first.  M3 holds
    iff every move agrees and no two states of a component share a label,
    for then a walk's net count per pair is the difference of its ends'
    potentials; ``_label``'s walk tests both.  A move s -> v by t that
    disagrees gives the closed walk "t, tree path v -> root, tree path root
    -> s", which is not vacuous; two states with one label give the vacuous
    tree path between them.  Tree paths run up on reverse tokens, which M1
    makes effective.

    Once M3 holds, a walk is consistent iff its length is the Hamming
    distance of its ends' labels, and a move toggles one bit.  So M2 holds
    on a component iff some move from p lowers the distance to q, for all p
    != q: ``families._moves_separate``.  On a component that passes, every
    BFS geodesic is consistent, so t occurs in a straight message into v iff
    v lies at or past the least level of t's targets in t's direction: M4
    fails there iff some pair moves at two levels, that is iff some field
    holds more than one bit.  On a component that fails the test this level
    lemma is false (``two_level_path`` in ``tests/test_exact_check.py``: M4
    holds though a pair moves at two levels), so ``_m4_search`` reads M4 off
    the straight sets, one bitset per state of the states it reaches by a
    straight walk.
    """
    states, rev = ts.states, ts.reverse
    pair: dict[str, tuple[int, int]] = {}
    for t in ts.tokens:
        if t not in pair:
            pair[t], pair[rev[t]] = (len(pair) // 2, 1), (len(pair) // 2, -1)
    out: list[list[tuple[int, str]]] = [[] for _ in states]
    for t, ms in ts._index_moves.items():
        for i, j in ms:
            out[i].append((j, t))
    ev = _Potentials([], [None] * len(states), [0] * (len(pair) // 2), [None] * len(states), out, pair)
    rank = {t: r for r, t in enumerate(ts.tokens)}
    width, bad, repeat = 0, None, None
    for root in range(len(states)):
        if ev.lab[root] is None:
            width, wide, least, toggles, again = _label(ev, root, width, rank)
            ev.shapes.append((width, wide, toggles))
            bad = min(filter(None, (bad, least)), default=None)
            repeat = repeat or again
    if len(ev.comps) > 1:
        ev.unreached = {"axiom": "M2", "source": states[0], "target": states[ev.comps[1][0]]}
    ev.m3 = _m3_witness(ts, ev, bad, repeat)
    if ev.m3 is None and ev.unreached is None:
        _component_checks(ts, ev)
    return ev


def _component_checks(ts: TokenSystem, ev: _Potentials):
    """M2's separation test and M4 by bounds per component, once; M3 must hold."""
    if not ev.separation:
        for comp, (width, wide, toggles) in zip(ev.comps, ev.shapes):
            ev.separation.append(_separation(ts, ev, comp, width, toggles))
            ev.bounds.append(_m4_bounds(ts, ev, comp) if wide and not ev.separation[-1] else None)


def _axiom_witnesses(ts: TokenSystem, ev: _Potentials) -> dict:
    """Exact M2-M4 witnesses of a system that passed M1, None where the axiom
    holds, read off ``ev``, its potentials (``check_axioms`` passes the ones
    its decision keeps when it is no medium).  When M3 fails the labels are no
    potentials: M4 is left out, and M2 too unless the system is disconnected."""
    found = {"M3": ev.m3}
    if ev.unreached:
        found["M2"] = ev.unreached
    if ev.m3 is None:
        _component_checks(ts, ev)
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


def _m3_witness(ts, ev, bad, repeat):
    """M3's witness off ``_label``'s walk: the disagreeing move ``bad``, least
    by (token rank, state), which orders moves by token then state, for a
    token moves a state at most once; else the first component's ``repeat``."""
    if bad is not None:
        t, i = ts.tokens[bad[0]], bad[1]
        j = next(j for j, u in ev.out[i] if u == t)
        return {"axiom": "M3", "kind": "ineffective-but-not-vacuous", "state": ts.states[i],
                "message": [t, *_tree_path(ts, ev, j, True), *_tree_path(ts, ev, i, False)]}
    if repeat is not None:
        s, i = repeat
        return {"axiom": "M3", "kind": "vacuous-but-effective", "state": ts.states[s],
                "message": _tree_path(ts, ev, s, True) + _tree_path(ts, ev, i, False), "end": ts.states[i]}
    return None


def _label(ev, root, width, rank):
    """The component of ``root``, by BFS into ``ev.comps``, and its threshold
    labels, into ``ev.lab``: bit (x, v) is set iff coordinate x is at least
    v, for v above x's least value in the component.  A tree step toggles the
    bit of its larger end, given out, from bit ``width`` up, the first time
    a step crosses that value.  A parent's coordinate x is the count of the
    bits it holds in x's field, less twice those of values at or below 0:
    they are held inverted while building, so that the root's label is 0,
    and inverted back at the end.  Each move is tested for M3 once its target
    has a label, whose bits are given out by then.  Returns the bits given out
    so far, whether some field holds two bits of the component, the least
    (token ``rank``, state) of a move that disagrees, each state's toggles in
    component order, and the first (earlier, later) states with one label."""
    lab, fields = ev.lab, ev.fields
    bit: dict = {}  # (coordinate, value) -> the bit number of its threshold
    low = 0  # the bits of values at or below 0
    lab[root] = 0
    comp, toggles, first = [root], [], {0: root}  # first: label -> the first state holding it
    bad = repeat = None
    for u in comp:
        moved = 0
        for j, t in ev.out[u]:
            x, step = ev.pair[t]
            if lab[j] is None:
                held = lab[u] & fields[x]
                v = held.bit_count() - 2 * (held & low).bit_count() + (step > 0)  # the larger end
                if (x, v) not in bit:
                    bit[x, v] = width
                    fields[x] |= 1 << width
                    if v <= 0:
                        low |= 1 << width
                    width += 1
                lab[j] = lab[u] ^ 1 << bit[x, v]
                ev.parent[j] = u, t
                comp.append(j)
                if first.setdefault(lab[j], j) != j and repeat is None:
                    repeat = first[lab[j]], j
            d = lab[u] ^ lab[j]
            if not d & fields[x] or d & d - 1 or ((lab[j] ^ low) & d != 0) != (step > 0):
                bad = min(bad or (rank[t], u), (rank[t], u))
            moved |= d
        toggles.append(moved)
    for i in comp:
        lab[i] ^= low
    ev.comps.append(comp)
    return width, len(bit) > len({x for x, _ in bit}), bad, toggles, repeat


def _separation(ts, ev, comp, width, toggles):
    found = _moves_separate([ev.lab[i] for i in comp], toggles, width)
    if found is None:
        return None
    return {"axiom": "M2", "source": ts.states[comp[found[0]]], "target": ts.states[comp[found[1]]]}


def _m4_bounds(ts, ev, comp):
    """M4 on a component that passes the separation test: the first pair met
    whose moves by its first token t reach two levels, a level being the
    bits a target holds in the pair's field.  The witness is t at the least
    level, then a geodesic to the source of a move at the greatest, against
    the reverse of that move."""
    moves: dict = {}  # first token of a pair -> its moves in the component
    for i in comp:
        for j, t in ev.out[i]:
            if ev.pair[t][1] > 0:
                moves.setdefault(t, []).append((i, j))
    for t, ms in moves.items():
        mask = ev.fields[ev.pair[t][0]]
        levels = [(ev.lab[j] & mask).bit_count() for _, j in ms]
        least, greatest = min(levels), max(levels)
        if least < greatest:  # its first moves to the least and to the greatest level
            high = ms[levels.index(greatest)]
            return _m4_witness(ts, ev, t, ms[levels.index(least)], high[0], high[::-1])
    return None


def _m4_search(ts, ev, comp):
    """M4 on a component that fails the separation test, on bitsets over its
    states in component order.  With M3 a walk is straight iff each step
    lowers the Hamming distance of the threshold labels to its end, so after
    a move a -> b toggling bit x it goes on straight to v iff v agrees with b
    on x: v is in the move's column ``keep`` of the labels' transpose, which
    it reads by ``families._bit_columns``.  ``reach[b]``, the states b reaches
    by a straight walk, is the least fixpoint of b and reach[j] & keep over
    b's moves, and t occurs in a straight message into v iff v is
    in reach[b] & keep for some t-move a -> b.  The witness is at the first
    move, in component then move order, whose set meets its reverse's."""
    lab, labels = ev.lab, [ev.lab[i] for i in comp]
    agree = _bit_columns(labels, max(labels).bit_length())
    moves = []  # (a, b, t, keep) in component then move order
    for a in comp:
        for b, t in ev.out[a]:
            x = (lab[a] ^ lab[b]).bit_length() - 1
            moves.append((a, b, t, agree[x][lab[b] >> x & 1]))
    reach = {i: 1 << p for p, i in enumerate(comp)}
    sweep, before = moves, None
    while reach != before:
        before = dict(reach)
        for a, b, _, keep in sweep:
            reach[a] |= reach[b] & keep
        sweep = sweep[::-1]  # a path takes one sweep each way, not one per state
    into: dict = {}  # token -> the states it occurs in a straight message into
    for a, b, t, keep in moves:
        into[t] = into.get(t, 0) | reach[b] & keep
    rev = ts.reverse
    for a, b, t, keep in moves:
        both = reach[b] & keep & into[rev[t]]
        if both:
            v = (both & -both).bit_length() - 1
            back = next((c, d) for c, d, u, k in moves if u == rev[t] and (reach[d] & k) >> v & 1)
            return _m4_witness(ts, ev, t, (a, b), comp[v], back)
    return None


def _m4_witness(ts, ev, t, move, v, back):
    """Two straight messages into v: t's move, then a geodesic, and the same
    from a move of t's reverse."""
    states, undo = ts.states, ts.reverse[t]
    return {"axiom": "M4", "produced": states[v],
            "state1": states[move[0]], "message1": [t, *_geodesic(ev.out, move[1], v)[::-1]],
            "state2": states[back[0]], "message2": [undo, *_geodesic(ev.out, back[1], v)[::-1]]}


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
    are media), matching reduced move sets to the mapped ones of ts1.
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
    wants = {frozenset()}  # a token moving nothing inside the image drops out of the reduction
    for t in ts1.tokens:
        want = {alpha[s]: alpha[v] for s, v in ts1.moves(t)}
        got = {a: b for a, b in ts2.moves(beta[t]) if a in image}
        if got != want:
            s = min((image[a] for a in want.keys() | got.keys() if want.get(a) != got.get(a)),
                    key=ts1._index.__getitem__)
            return EmbeddingReport(False, mismatch={
                "state": s, "token": t, "source_result": image[want.get(alpha[s], alpha[s])],
                "target_result": got.get(alpha[s], alpha[s])})
        wants.add(frozenset(want.items()))
    reduced = {frozenset((a, b) for a, b in ts2.moves(u) if a in image and b in image)
               for u in ts2.tokens}
    return EmbeddingReport(True, reduction_isomorphic=reduced <= wants)
