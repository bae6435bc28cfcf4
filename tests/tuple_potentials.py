"""The token-pair decision and the tuple potentials as they were before the
decision read the packed potentials: the differential oracle of
``tests/test_packed_potentials.py``.

``_pair_decision`` labels states by its own pair bitmasks and BFS, and
falls back on ``_potentials`` (one tuple per state, one coordinate per
token pair) only to name a non-medium's first failing axiom;
``_axiom_witnesses`` reads M2-M4 off the tuples.  Everything below
``fresh`` is kept verbatim, except that its decisions are
``frozenset_labels.SetDecision``, the frozenset decision it was written
for.  Both routes store their potentials on the system under one
attribute, so each runs on its own fresh copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tokenmedia.families import SetFamily, _moves_separate
from tokenmedia.tokens import TokenSystem, reverse_defect

from frozenset_labels import SetDecision


def fresh(ts: TokenSystem) -> TokenSystem:
    """A copy of ts with nothing stored on it yet."""
    return TokenSystem.from_json_dict(ts.to_json_dict())


def _pair_decision(ts: TokenSystem) -> SetDecision:
    defect = reverse_defect(ts)
    if defect is not None:
        return SetDecision(False, witness=defect)
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
        return SetDecision(
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
    return SetDecision(True, family=family, alpha=alpha, beta=beta)


def _axiom_rejection(ts: TokenSystem) -> SetDecision:
    """A connected system that passed M1 and is no medium: the witness of the
    first check that fails among M3, M2's separation test and M4 by bounds.
    By the representation theorem one of them fails, and none of them runs
    a BFS per state."""
    ev = _potentials(ts)
    return SetDecision(False, witness=ev.m3 or ev.separation[0] or ev.bounds[0])


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


