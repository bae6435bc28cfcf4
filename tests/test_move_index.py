"""The move index of ``TokenSystem``: exact, and the only walk over the table.

Construction validates the dense action table in one walk and stores, per
token, its effective moves as (state index, target index) pairs.  The
oracles here are the dense routes that the index replaced, kept verbatim:
the validation walk, ``_reverse_candidates`` and ``_declared_breach`` over
the table, and the walks' ``out_moves`` over the table rows.  ``dense_transport`` (a
search over the target's tokens per token, then a re-check of every table
entry) carries a state isomorphism over to the tokens; ``media_isomorphic``
reads its token map off the two stored decisions, and the two must agree.
Rows wrapped in a counting mapping show that nothing after construction
reads the table on the decision paths.
"""

import random
from collections.abc import Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia.cubes import media_isomorphic, medium_graph
from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.represent import decide_medium
from tokenmedia.tokens import TokenSystem, check_axioms, reduction, reverse_defect

import walks
from conftest import dense_action, reverse_candidates, wg_families


# --- the dense routes ---------------------------------------------------------


def dense_validation(states, toks, action, reverse):
    """Oracle: the validation walk of the dense table, raising the same
    InputError messages in the same order."""
    if len(states) < 2:
        raise InputError("a token system needs more than one state")
    state_set = frozenset(states)
    if len(state_set) != len(states):
        raise InputError("duplicate state ids")
    token_set = frozenset(toks)
    if len(token_set) != len(toks):
        raise InputError("duplicate token ids")
    if set(action) != set(token_set):
        raise InputError("action table must have exactly one row per token")
    for t in toks:
        row = action[t]
        if len(row) != len(states):
            raise InputError(f"action of token {t!r} is not total")
        moved = False
        for s in states:
            v = row.get(s)
            if v is None:
                raise InputError(f"action of token {t!r} missing state {s!r}")
            if v not in state_set:
                raise InputError(f"action of token {t!r} leaves the state set")
            moved = moved or v != s
        if not moved:
            raise InputError(f"token {t!r} acts as the identity on every state")
    if reverse is not None:
        if set(reverse) != set(token_set):
            raise InputError("reverse pairing must cover every token")
        for t in toks:
            r = reverse[t]
            if r == t or r not in token_set or reverse[r] != t:
                raise InputError("reverse pairing must be a fixed-point-free involution")


def dense_reverse_candidates(states, toks, action) -> dict[str, list[str]]:
    """Oracle: each token's reverse candidates from a pass over the table."""
    moves = {
        t: frozenset((s, v) for s in states if (v := action[t][s]) != s) for t in toks
    }
    by_moves: dict[frozenset, list[str]] = {}
    for t in toks:
        by_moves.setdefault(moves[t], []).append(t)
    return {t: by_moves.get(frozenset((v, s) for (s, v) in moves[t]), []) for t in toks}


def dense_declared_breach(ts, t, declared):
    """Oracle: the first move of t or of its declared reverse that the other
    does not undo, found by lookups in the table."""
    act = dense_action(ts)
    for s in ts.states:
        v = act[t][s]
        if v != s and act[declared][v] != s:
            return {"axiom": "M1", "kind": "declared-not-reverse", "token": t,
                    "declared": declared, "state": s, "message": [t, declared]}
    for v in ts.states:
        s = act[declared][v]
        if s != v and act[t][s] != v:
            return {"axiom": "M1", "kind": "declared-not-reverse", "token": t,
                    "declared": declared, "state": v, "message": [declared, t]}
    return {"axiom": "M1", "kind": "declared-not-reverse", "token": t, "declared": declared}


def dense_reverse_defect(ts):
    """Oracle: the exact M1 check over the table."""
    if ts.reverse is None:
        return {"axiom": "M1", "kind": "missing-reverse-pairing"}
    for t, cands in dense_reverse_candidates(ts.states, ts.tokens, dense_action(ts)).items():
        declared = ts.reverse[t]
        if declared not in cands:
            return dense_declared_breach(ts, t, declared)
        if len(cands) > 1:
            return {"axiom": "M1", "kind": "ambiguous-reverse", "token": t, "candidates": cands}
    return None


def dense_out_moves(ts):
    """Oracle: each state's effective moves (token, image), in token order,
    from the table rows."""
    out: dict[str, list[tuple[str, str]]] = {s: [] for s in ts.states}
    act = dense_action(ts)
    for t in ts.tokens:
        for s, v in act[t].items():
            if v != s:
                out[s].append((t, v))
    return out


def dense_transport(ts1, ts2, alpha):
    """Oracle: the token bijection carried by a state isomorphism alpha of
    two media, by a search over the tokens of ts2 for each token of ts1 and
    a re-check of every table entry."""
    beta: dict[str, str] = {}
    act1, act2 = dense_action(ts1), dense_action(ts2)
    for t in ts1.tokens:
        s, v = next(iter(ts1.moves(t)))
        image = None
        for u in ts2.tokens:
            if act2[u][alpha[s]] == alpha[v]:
                image = u
                break
        if image is None:
            raise InputError("graph isomorphism does not transport tokens; not media")
        beta[t] = image
    for t in ts1.tokens:
        for s in ts1.states:
            if alpha[act1[t][s]] != act2[beta[t]][alpha[s]]:
                raise AssertionError("token transport failed; inputs are not media")
    if len(set(beta.values())) != len(ts2.tokens):
        raise AssertionError("token transport not bijective; inputs are not media")
    return beta


# --- inputs -------------------------------------------------------------------


@st.composite
def any_families(draw):
    """Any family of at least two sets over at most four elements."""
    ground = "abcd"[:draw(st.integers(1, 4))]
    masks = draw(st.sets(st.integers(0, (1 << len(ground)) - 1), min_size=2, max_size=10))
    sets = [frozenset(x for i, x in enumerate(ground) if m >> i & 1) for m in sorted(masks)]
    return SetFamily(tuple(ground), tuple(sets))


EDITS = ["fix", "redirect", "duplicate-pair", "duplicate-token", "identity-pair", "missing",
         "foreign-key", "foreign-value", "drop-reverse"]


@st.composite
def raw_systems(draw):
    """Raw (states, tokens, action, reverse) inputs: the system of a family
    (a medium iff the family is well graded), states and tokens listed in a
    drawn order, then up to three drawn edits.  The edits make fixed points,
    tokens with equal move sets (paired, or unpaired so that the pairing is
    no involution), identity tokens, missing and foreign entries, and
    systems with no pairing."""
    fam = draw(st.one_of(wg_families(), any_families()))
    base = family_medium(fam)
    states = list(draw(st.permutations(base.states)))
    toks = list(draw(st.permutations(base.tokens)))
    rows = dense_action(base)
    action = {t: rows[t] for t in toks}
    reverse = dict(base.reverse)
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        s = draw(st.sampled_from(states))
        t = draw(st.sampled_from(toks)) if toks else None
        if edit == "fix" and t:
            action[t][s] = s
        elif edit == "redirect" and t:
            action[t][s] = draw(st.sampled_from(states))
        elif edit == "duplicate-pair" and t and reverse is not None:
            u, r = f"dup{len(toks)}", f"dup{len(toks) + 1}"
            toks += [u, r]
            action[u], action[r] = dict(action[t]), dict(action[reverse[t]])
            reverse[u], reverse[r] = r, u
        elif edit == "duplicate-token" and t:
            u = f"dup{len(toks)}"
            toks.append(u)
            action[u] = dict(action[t])
            if reverse is not None:
                reverse[u] = reverse[t]
        elif edit == "identity-pair":
            u, r = f"id{len(toks)}", f"id{len(toks) + 1}"
            toks += [u, r]
            action[u] = {x: x for x in states}
            action[r] = {x: (states[0] if x == states[1] else x) for x in states}
            if reverse is not None:
                reverse[u], reverse[r] = r, u
        elif edit == "missing" and t and s in action[t]:
            del action[t][s]
        elif edit == "foreign-key" and t and s in action[t]:
            action[t]["zz"] = action[t].pop(s)
        elif edit == "foreign-value" and t:
            action[t][s] = "zz"
        elif edit == "drop-reverse":
            reverse = None
    return tuple(states), tuple(toks), action, reverse


def relabelled(ts, rng, wrap=dict):
    """A copy of ts with fresh state and token names listed in a shuffled
    order, its rows built by ``wrap``."""
    sname = dict(zip(ts.states, rng.sample([f"q{i}" for i in range(len(ts.states))],
                                           len(ts.states))))
    tname = dict(zip(ts.tokens, rng.sample([f"k{i}" for i in range(len(ts.tokens))],
                                           len(ts.tokens))))
    action = {tname[t]: wrap({sname[s]: sname[v] for s, v in row.items()})
              for t, row in dense_action(ts).items()}
    return TokenSystem(tuple(rng.sample(sorted(sname.values()), len(ts.states))),
                       tuple(rng.sample(sorted(tname.values()), len(ts.tokens))),
                       action, {tname[t]: tname[r] for t, r in ts.reverse.items()})


def error_of(build, *args):
    try:
        build(*args)
    except InputError as exc:
        return str(exc)
    return None


# --- the index against the dense routes -----------------------------------------


@settings(max_examples=400, deadline=None)
@given(raw=raw_systems(), seed=st.integers(0, 2**16))
def test_index_matches_the_dense_routes(raw, seed):
    states, toks, action, reverse = raw
    want = error_of(dense_validation, *raw)
    assert error_of(TokenSystem, *raw) == want
    if want is not None:
        return
    ts = TokenSystem(*raw)
    assert ts._index == {s: i for i, s in enumerate(states)}
    assert list(ts._index_moves.items()) == [
        (t, [(i, states.index(v)) for i, s in enumerate(states) if (v := action[t][s]) != s])
        for t in toks]
    assert all(ts.moves(t) == {(s, v) for s, v in action[t].items() if v != s} for t in toks)
    assert reverse_candidates(ts) == dense_reverse_candidates(states, toks, action)
    assert walks.out_moves(ts) == dense_out_moves(ts)
    assert reverse_defect(ts) == dense_reverse_defect(ts)
    keep = random.Random(seed).sample(states, max(2, len(states) - 1))
    red = reduction(ts, keep)
    cands = dense_reverse_candidates(red.states, red.tokens, dense_action(red))
    unique = all(len(c) == 1 and c[0] != t for t, c in cands.items())
    assert red.reverse == ({t: c[0] for t, c in cands.items()} if unique else None)
    if decide_medium(ts).is_medium:
        other = relabelled(ts, random.Random(seed))
        alpha, beta = media_isomorphic(ts, other)
        assert dense_transport(ts, other, alpha) == beta


def test_unhashable_entry_leaves_the_state_set():
    # the dense walk let the TypeError of a set lookup escape here
    bad = {"u": {"a": ["x"], "b": "b"}}
    assert error_of(TokenSystem, ("a", "b"), ("u",), bad, None) == \
        "action of token 'u' leaves the state set"


# --- no table walk after construction -------------------------------------------


class CountingRow(Mapping):
    """An action row that counts every read of it in a shared list."""

    def __init__(self, row, reads):
        self._row, self._reads = row, reads

    def __getitem__(self, s):
        self._reads.append(s)
        return self._row[s]

    def __iter__(self):
        self._reads.append(None)
        return iter(self._row)

    def __len__(self):
        self._reads.append(None)
        return len(self._row)


@settings(max_examples=300, deadline=None)
@given(raw=raw_systems(), seed=st.integers(0, 2**16), bound=st.integers(1, 4))
def test_decision_paths_read_no_action_row(raw, seed, bound):
    states, toks, action, reverse = raw
    if error_of(dense_validation, *raw) is not None:
        return
    reads: list = []
    plain = TokenSystem(*raw)
    if decide_medium(plain).is_medium:
        other = relabelled(plain, random.Random(seed), wrap=lambda row: CountingRow(row, reads))
    ts = TokenSystem(states, toks, {t: CountingRow(row, reads) for t, row in action.items()},
                     reverse)
    reads.clear()
    reverse_defect(ts)
    check_axioms(ts, bound)
    walks.bounded_report(ts, bound)
    if decide_medium(ts).is_medium:
        medium_graph(ts)
        assert media_isomorphic(ts, other) is not None
    assert reads == []
