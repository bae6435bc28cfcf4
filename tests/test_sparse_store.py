"""The sparse store of ``TokenSystem``: the builders, the dense table and
the ``"moves"`` input.

A system keeps only its move index; the dense table of its JSON document is
built from it on each call of ``to_json_dict``.
The oracles here are the dense-row builders that the five move builders
replaced, kept as they were: each fills an identity row per token, sets the
moves, and passes the table to the constructor.  Every builder must give the
system its dense twin gives.  A ``"moves"`` document must behave on every
command exactly as its dense twin does.
"""

import itertools
import json
import random
from collections.abc import Hashable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia import cli, tokens
from tokenmedia.arrangements import (
    Arrangement,
    Line,
    arrangement_medium,
    enumerate_regions,
    mosaic_window,
    negative_token,
    positive_token,
    region_adjacency,
)
from tokenmedia.cubes import graph_to_medium, is_partial_cube, medium_graph
from tokenmedia.errors import InputError
from tokenmedia.families import ADD_PREFIX, REMOVE_PREFIX, SetFamily, family_medium, set_name
from tokenmedia.linorders import linear_medium, token_name
from tokenmedia.represent import contents, decide_medium, verify_embedding
from tokenmedia.tokens import TokenSystem, check_axioms, reduction

from conftest import dense_action, path3, reverse_candidates, twisted_square, wg_families
from test_exact_check import two_level_path
from test_tokens import FIRST_FAILURES


# --- the dense-row builders ----------------------------------------------------


def dense_arrangement_medium(arr, regions, graph):
    names = tuple(r.name for r in regions)
    toks, action, reverse = [], {}, {}
    for k in range(len(arr.lines)):
        pos_id, neg_id = positive_token(k), negative_token(k)
        toks += [pos_id, neg_id]
        action[pos_id] = {s: s for s in names}
        action[neg_id] = {s: s for s in names}
        reverse[pos_id], reverse[neg_id] = neg_id, pos_id
    for (u, v) in graph.edges:
        forward, backward = graph.edge_labels[(u, v)]
        action[forward][u] = v
        action[backward][v] = u
    return TokenSystem(names, tuple(toks), action, reverse)


def dense_linear_medium(n):
    elements = tuple(str(i) for i in range(1, n + 1))
    toks, reverse = [], {}
    for i in range(n):
        for j in range(i + 1, n):
            fwd, bwd = token_name(elements[i], elements[j]), token_name(elements[j], elements[i])
            toks += [fwd, bwd]
            reverse[fwd], reverse[bwd] = bwd, fwd
    perms = list(itertools.permutations(elements))
    names = ["".join(p) for p in perms]
    action = {t: {name: name for name in names} for t in toks}
    for p, name in zip(perms, names):
        for i in range(n - 1):
            y, x = p[i], p[i + 1]
            action[token_name(x, y)][name] = "".join(p[:i] + (x, y) + p[i + 2:])
    return TokenSystem(tuple(names), tuple(toks), action, reverse)


def dense_family_medium(fam):
    names = {s: set_name(s, fam.ground) for s in fam.sets}
    members = set(fam.sets)
    toks, action, reverse = [], {}, {}
    for x in fam.ground:
        add_row, rem_row, moved = {}, {}, False
        for s in fam.sets:
            up, down = s | {x}, s - {x}
            add_row[names[s]] = names[up] if x not in s and up in members else names[s]
            rem_row[names[s]] = names[down] if x in s and down in members else names[s]
            moved = moved or add_row[names[s]] != names[s] or rem_row[names[s]] != names[s]
        if moved:
            add_id, rem_id = ADD_PREFIX + x, REMOVE_PREFIX + x
            toks += [add_id, rem_id]
            action[add_id], action[rem_id] = add_row, rem_row
            reverse[add_id], reverse[rem_id] = rem_id, add_id
    return TokenSystem(tuple(names[s] for s in fam.sets), tuple(toks), action, reverse)


def dense_graph_to_medium(g):
    pc = is_partial_cube(g)
    labels = pc.alpha
    where = {labels[v]: v for v in g.vertices}
    toks, action, reverse = [], {}, {}
    for k in sorted(set(pc.edge_classes.values()), key=int):
        up = {v: where.get(labels[v] | {k}, v) if k not in labels[v] else v for v in g.vertices}
        down = {v: where.get(labels[v] - {k}, v) if k in labels[v] else v for v in g.vertices}
        a, r = f"add:{k}", f"rem:{k}"
        toks += [a, r]
        action[a], action[r] = up, down
        reverse[a], reverse[r] = r, a
    return TokenSystem(g.vertices, tuple(toks), action, reverse)


def dense_reduction(ts, keep):
    keep_set = frozenset(keep)
    states = tuple(s for s in ts.states if s in keep_set)
    seen, order, action, act = set(), [], {}, dense_action(ts)
    for t in ts.tokens:
        row = {s: v if (v := act[t][s]) in keep_set else s for s in states}
        sig = tuple(row.values())
        if sig == states or sig in seen:
            continue
        seen.add(sig)
        order.append(t)
        action[t] = row
    plain = TokenSystem(states, tuple(order), action)
    cands = reverse_candidates(plain)
    if all(len(c) == 1 and c[0] != t for t, c in cands.items()):
        return TokenSystem(states, plain.tokens, action, {t: c[0] for t, c in cands.items()})
    return plain


def assert_twins(ts, dense):
    assert ts == dense
    assert ts._index_moves == dense._index_moves
    assert ts.to_json_dict() == dense.to_json_dict()
    assert ts.reverse == dense.reverse


# --- the builders against their dense twins ---------------------------------------


ARRANGEMENTS = [
    Arrangement((Line.of(1, 0, 0), Line.of(0, 1, 0))),
    Arrangement((Line.of(0, 1, 0), Line.of(1, -1, 0), Line.of(1, 1, 0))),
    Arrangement((Line.of(1, 0, 0), Line.of(1, 0, -1), Line.of(0, 1, 0), Line.of(1, 1, -3))),
] + [mosaic_window(kind, r) for kind in ("triangular", "truncated-square") for r in (1, 2, 3)]


@pytest.mark.parametrize("arr", ARRANGEMENTS, ids=range(len(ARRANGEMENTS)))
def test_arrangement_medium_matches_its_dense_twin(arr):
    regions = enumerate_regions(arr)
    graph = region_adjacency(arr, regions)
    assert_twins(arrangement_medium(arr, regions, graph), dense_arrangement_medium(arr, regions, graph))


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
                     .filter(lambda r: r[0] or r[1]), min_size=1, max_size=6))
def test_arrangement_medium_matches_its_dense_twin_on_drawn_lines(rows):
    try:
        arr = Arrangement(tuple(Line.of(*r) for r in rows))
    except InputError:  # projectively equal lines
        return
    regions = enumerate_regions(arr)
    graph = region_adjacency(arr, regions)
    assert_twins(arrangement_medium(arr, regions, graph), dense_arrangement_medium(arr, regions, graph))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_linear_medium_matches_its_dense_twin(n):
    assert_twins(linear_medium(n)[0], dense_linear_medium(n))


def any_families():
    return st.integers(1, 5).flatmap(lambda k: st.sets(
        st.integers(0, (1 << k) - 1), min_size=2, max_size=12).map(lambda masks: SetFamily(
            tuple("abcde"[:k]),
            tuple(frozenset(x for i, x in enumerate("abcde"[:k]) if m >> i & 1) for m in sorted(masks)))))


@settings(max_examples=150, deadline=None)
@given(fam=st.one_of(wg_families(), any_families()), seed=st.integers(0, 2**16))
def test_family_medium_and_reduction_match_their_dense_twins(fam, seed):
    ts = family_medium(fam)
    assert_twins(ts, dense_family_medium(fam))
    rng = random.Random(seed)
    keep = rng.sample(ts.states, rng.randint(2, len(ts.states)))
    assert_twins(reduction(ts, keep), dense_reduction(ts, keep))


@settings(max_examples=60, deadline=None)
@given(fam=wg_families())
def test_graph_to_medium_matches_its_dense_twin(fam):
    g = medium_graph(family_medium(fam))
    assert_twins(graph_to_medium(g), dense_graph_to_medium(g))


def test_graph_to_medium_on_linear_and_region_graphs():
    arr = mosaic_window("truncated-square", 2)
    for g in (medium_graph(linear_medium(4)[0]), region_adjacency(arr, enumerate_regions(arr))):
        assert_twins(graph_to_medium(g), dense_graph_to_medium(g))


def test_reductions_of_small_systems_match_their_dense_twins():
    for ts in (path3(), twisted_square(), linear_medium(4)[0]):
        for k in range(2, len(ts.states) + 1):
            keep = ts.states[:k]
            assert_twins(reduction(ts, keep), dense_reduction(ts, keep))


# --- the dense table ---------------------------------------------------------------


def test_the_view_round_trips_through_the_constructor():
    for ts in (linear_medium(4)[0], family_medium(SetFamily.of("abc", [set(), {"a"}, {"a", "b"}])),
               twisted_square(), arrangement_medium(mosaic_window("triangular", 1))):
        act = dense_action(ts)
        again = TokenSystem(ts.states, ts.tokens, act, ts.reverse)
        assert again == ts and again._index_moves == ts._index_moves
        assert dense_action(again) == act
        assert list(act) == list(ts.tokens) and len(act) == len(ts.tokens)
        for t in ts.tokens:
            assert list(act[t]) == list(ts.states)


def test_the_view_is_read_only():
    # the written table is a fresh copy: editing it leaves the system as it was
    ts = path3()
    t, s = ts.tokens[0], ts.states[0]
    act = dense_action(ts)
    act[t][s] = ts.states[1]
    act[ts.tokens[1]] = {}
    del act[ts.tokens[2]]
    assert dense_action(ts) == dense_action(path3()) and ts == path3()
    with pytest.raises(AttributeError):
        ts.states = ("A", "B")
    assert not hasattr(ts, "action") and "zz" not in dense_action(ts)


FIELDS = {"states", "tokens", "reverse", "_index", "_index_moves"}


def test_the_store_keeps_no_dense_table():
    ts = TokenSystem.from_json_dict(linear_medium(3)[0].to_json_dict())
    ts.to_json_dict()
    assert set(vars(ts)) == FIELDS
    assert not hasattr(TokenSystem, "action")
    assert all(ts.moves(t) for t in ts.tokens)
    identity = verify_embedding(ts, ts, {s: s for s in ts.states}, {t: t for t in ts.tokens})
    assert identity.embedding and identity.reduction_isomorphic
    assert set(vars(ts)) == FIELDS  # no move set is kept, and no reduction stored
    contents(ts)
    assert set(vars(ts)) == FIELDS | {"_decision"}  # the decision, but no content table


def test_the_system_is_a_frozen_unhashable_record():
    # what the former hand-written __setattr__, __delattr__, __eq__ and __hash__ gave
    ts = path3()
    with pytest.raises(AttributeError):
        del ts.states
    with pytest.raises(AttributeError):
        ts.extra = 1
    with pytest.raises(TypeError):
        hash(ts)
    assert not isinstance(ts, Hashable) and set(vars(ts)) == FIELDS
    # equal iff states, tokens, reverse and moves are
    moves = {t: dict(ts.moves(t)) for t in ts.tokens}
    assert ts == TokenSystem(ts.states, ts.tokens, reverse=ts.reverse, moves=moves) and ts != object()
    assert ts != TokenSystem(ts.states, ts.tokens, moves=moves)
    assert ts != TokenSystem(ts.states[::-1], ts.tokens, reverse=ts.reverse, moves=moves)
    assert ts != TokenSystem(ts.states, ts.tokens[::-1], reverse=ts.reverse, moves=moves)
    f1, _, f2, _ = ts.tokens  # the two forward tokens trade their moves
    traded = {**moves, f1: moves[f2], f2: moves[f1]}
    assert ts != TokenSystem(ts.states, ts.tokens, reverse=ts.reverse, moves=traded)


# one system per kind of decision: a medium, an M1 failure, a disconnected
# system, an M3 failure and a connected system that fails M2's separation test
DECIDED = {
    "medium": lambda: linear_medium(3)[0],
    "M1": lambda: FIRST_FAILURES["M1"][0],
    "disconnected": lambda: FIRST_FAILURES["M2"][0],
    "M3": lambda: FIRST_FAILURES["M3"][0],
    "separation": two_level_path,
}


@pytest.mark.parametrize("kind", sorted(DECIDED))
def test_the_decision_is_the_only_record_kept(kind):
    # check_axioms and decide_medium, in either order and twice, store the
    # decision and nothing else; the axioms are read off it
    reports, decisions = [], []
    for calls in ((check_axioms, decide_medium), (decide_medium, check_axioms)):
        ts = TokenSystem.from_json_dict(DECIDED[kind]().to_json_dict())
        for call in calls * 2:
            (reports if call is check_axioms else decisions).append(call(ts))
            assert set(vars(ts)) == FIELDS | {"_decision"}
        assert decisions[-1] is decisions[-2] is ts._decision
    assert all(r == reports[0] for r in reports) and all(d == decisions[0] for d in decisions)
    assert (decisions[0].potentials is None) == (kind in ("medium", "M1"))


def counted_constructions(monkeypatch) -> list:
    """Patch ``TokenSystem.__init__`` to record each system built, in order."""
    built, init = [], TokenSystem.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(TokenSystem, "__init__", counting)
    return built


def test_reduction_builds_one_system_and_verify_embedding_none(monkeypatch):
    cube, pair = linear_medium(4)[0], path3()
    ring = family_medium(SetFamily.of("abc", [set(), {"a"}, {"a", "b"}]))
    lone = TokenSystem(("S", "T"), ("t",), {"t": {"S": "T", "T": "T"}})
    swap = TokenSystem(("A", "B", "C"), ("s",), moves={"s": {"A": "B", "B": "A", "C": "A"}})
    built = counted_constructions(monkeypatch)
    # paired; no tokens left; no reverse for t; s its own reverse on A and B
    cases = [(cube, cube.states[:7], True), (ring, ring.states, True), (pair, ["P", "R"], True),
             (lone, lone.states, False), (swap, ["A", "B"], False)]
    for ts, keep, paired in cases:
        built.clear()
        red = reduction(ts, keep)
        assert built == [red] and (red.reverse is not None) == paired
    built.clear()
    # b1 stays in the reduction of path3 to P and Q, and nothing maps onto it
    for ts1, ts2, alpha, beta, isomorphic in [
            (cube, cube, {s: s for s in cube.states}, {t: t for t in cube.tokens}, True),
            (lone, pair, {"S": "P", "T": "Q"}, {"t": "f1"}, False),
            (pair, cube, {"P": "1234", "Q": "2134", "R": "2314"},
             {"f1": "t:2<1", "b1": "t:1<2", "f2": "t:3<1", "b2": "t:1<3"}, True)]:
        report = verify_embedding(ts1, ts2, alpha, beta)
        assert report.embedding and report.reduction_isomorphic is isomorphic
    assert built == []


def test_build_and_print_builds_no_dense_row(monkeypatch, capsys, tmp_path):
    def refuse(states, ms):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(tokens, "_dense_row", refuse)
    arr = tmp_path / "arr.json"
    arr.write_text(json.dumps({"lines": [{"a": "1", "b": "0", "c": "0"}, {"a": "0", "b": "1", "c": "0"}]}))
    for argv in (["linmedium", "4"], ["mosaic", "triangular", "--radius", "2"], ["arrangement", str(arr)]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    # the library's walks read the moves too
    ts = linear_medium(4)[0]
    assert tokens.apply(ts, "1234", ["t:2<1", "t:3<1"]) == "2314"
    assert tokens.is_stepwise_effective(ts, "1234", ["t:2<1", "t:3<1"])
    assert not tokens.is_stepwise_effective(ts, "1234", ["t:1<2"])
    assert len(tokens.straight_message(ts, "1234", "4321")) == 6
    identity = verify_embedding(ts, ts, {s: s for s in ts.states}, {t: t for t in ts.tokens})
    assert identity.embedding and identity.reduction_isomorphic


def test_a_constructor_needs_exactly_one_form():
    with pytest.raises(TypeError):
        TokenSystem(("a", "b"), ("t",))
    with pytest.raises(TypeError):
        TokenSystem(("a", "b"), ("t",), {"t": {"a": "b", "b": "b"}}, moves={"t": {"a": "b"}})


@pytest.mark.parametrize("moves, message", [
    ({"t": {"a": "zz"}}, "action of token 't' leaves the state set"),
    ({"t": {"a": None}}, "action of token 't' leaves the state set"),
    ({"t": {"a": ["b"]}}, "action of token 't' leaves the state set"),
    ({"t": {"zz": "a"}}, "a move of token 't' starts outside the state set"),
    ({"t": {"a": "a"}}, "token 't' moves state 'a' to itself"),
    ({"t": {"b": "a", "a": "a"}}, "token 't' moves state 'a' to itself"),
    ({"t": {}}, "token 't' acts as the identity on every state"),
    ({}, "token 't' acts as the identity on every state"),
    ({"t": {"a": "b"}, "u": {"a": "b"}}, "moves given for undeclared token 'u'"),
])
def test_moves_are_validated(moves, message):
    with pytest.raises(InputError) as exc:
        TokenSystem(("a", "b"), ("t",), moves=moves)
    assert str(exc.value) == message


def test_moves_in_any_order_give_the_index_in_state_order():
    ts = TokenSystem(("a", "b", "c"), ("t",), moves={"t": {"c": "a", "a": "b"}})
    assert ts._index_moves == {"t": [(0, 1), (2, 0)]}
    assert dense_action(ts)["t"] == {"a": "b", "b": "b", "c": "a"}


# --- "moves" documents on the command line ------------------------------------------


def sparse_twin(doc):
    """The document with its dense "action" table replaced by "moves"."""
    out = {k: v for k, v in doc.items() if k != "action"}
    out["moves"] = {t: {s: v for s, v in row.items() if v != s} for t, row in doc["action"].items()}
    return out


DENSE_SYSTEMS = {
    "linmedium-4": lambda: linear_medium(4)[0],
    "mosaic": lambda: arrangement_medium(mosaic_window("truncated-square", 1)),
    "family": lambda: family_medium(SetFamily.of("abcd", [
        set(), {"a"}, {"b"}, {"a", "b"}, {"b", "c"}, {"a", "b", "c"}, {"b", "c", "d"}, {"a", "b", "c", "d"}])),
    "twisted-square": twisted_square,  # no medium: check and represent exit 1
}


@pytest.mark.parametrize("name", sorted(DENSE_SYSTEMS))
def test_a_moves_document_prints_what_its_dense_twin_prints(name, tmp_path, capsys):
    dense_doc = DENSE_SYSTEMS[name]().to_json_dict()
    dense, sparse = tmp_path / "dense.json", tmp_path / "sparse.json"
    dense.write_text(json.dumps(dense_doc))
    sparse.write_text(json.dumps(sparse_twin(dense_doc)))
    for argv in (["check"], ["represent"], ["graph"]):
        outs = [(cli.main(argv + [str(p)]), capsys.readouterr()) for p in (dense, sparse)]
        assert outs[0] == outs[1], argv
    outs = [(cli.main(["iso", str(a), str(b)]), capsys.readouterr())
            for a, b in ((dense, dense), (sparse, sparse), (dense, sparse))]
    assert outs[0] == outs[1] == outs[2]


TWO = {"states": ["a", "b"], "tokens": [{"id": "t", "reverse": "u"}, {"id": "u", "reverse": "t"}]}
GOOD_MOVES = {"t": {"a": "b"}, "u": {"b": "a"}}
BAD_DOCUMENTS = {
    "both": {**TWO, "moves": GOOD_MOVES, "action": {"t": {"a": "b", "b": "b"}, "u": {"a": "a", "b": "a"}}},
    "neither": TWO,
    "target-not-a-state": {**TWO, "moves": {**GOOD_MOVES, "t": {"a": "c"}}},
    "move-to-itself": {**TWO, "moves": {**GOOD_MOVES, "t": {"a": "b", "b": "b"}}},
    "undeclared-token": {**TWO, "moves": {**GOOD_MOVES, "v": {"a": "b"}}},
    "token-with-no-move": {**TWO, "moves": {"t": {"a": "b"}}},
    "empty-row": {**TWO, "moves": {**GOOD_MOVES, "u": {}}},
    "row-not-an-object": {**TWO, "moves": {**GOOD_MOVES, "u": [["b", "a"]]}},
    "moves-not-an-object": {**TWO, "moves": [["t", "a", "b"]]},
    "undeclared-token-dense": {**TWO, "action": {"t": {"a": "b", "b": "b"}, "u": {"a": "a", "b": "a"},
                                                 "v": {"a": "b", "b": "b"}}},
    "action-not-an-object": {**TWO, "action": [["t", "a", "b"]]},
    "one-state-dense-missing-row": {"states": ["a"], "tokens": ["t", "u"], "action": {"t": {"a": "a"}}},
    "duplicate-token-dense-missing-row": {"states": ["a", "b"], "tokens": ["t", "t"], "action": {}},
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_bad_moves_documents_are_parse_errors(name, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_DOCUMENTS[name]))
    assert cli.main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("parse error:") and "Traceback" not in err


@pytest.mark.parametrize("name, message", [
    ("undeclared-token-dense", "action table must have exactly one row per token"),
    ("action-not-an-object", "token system 'action' must be a JSON object"),
    ("moves-not-an-object", "token system 'moves' must be a JSON object"),
    ("one-state-dense-missing-row", "a token system needs more than one state"),
    ("duplicate-token-dense-missing-row", "duplicate token ids"),
])
def test_both_tables_get_one_check(name, message, tmp_path, capsys):
    # the dense table goes whole to the constructor's walk, as the moves do,
    # so a row for an undeclared token is refused, not dropped, and the
    # constructor's state and token checks come before any row check
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_DOCUMENTS[name]))
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_the_good_moves_document_is_a_medium(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps({**TWO, "moves": GOOD_MOVES}))
    assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()
