import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenmedia import represent
from tokenmedia.errors import InputError, ParseError
from tokenmedia.cubes import LabeledGraph, graph_to_medium, is_partial_cube, medium_graph
from tokenmedia.families import SetFamily, distance, family_medium, set_name
from tokenmedia.linorders import LinearOrder, apply_token, encode, linear_medium
from tokenmedia.represent import decide_medium
from tokenmedia.tokens import (
    TokenSystem,
    apply,
    check_axioms,
    content,
    is_consistent,
    is_stepwise_effective,
    is_vacuous,
    message_reverse,
    reduction,
    straight_message,
    _straight_search,
)

import walks
from conftest import dense_action, path3, power_set_family, two_state, wg_families
from test_json_writer import systems as drawn_systems


def three_cycle():
    """A 3-cycle of states with forward and backward cycle tokens."""
    states = ("A", "B", "C")
    fwd = {"A": "B", "B": "C", "C": "A"}
    bwd = {v: k for k, v in fwd.items()}
    return TokenSystem(
        states,
        ("c1", "c1~", "c2", "c2~", "c3", "c3~"),
        {
            "c1": {"A": "B", "B": "B", "C": "C"},
            "c1~": {"B": "A", "A": "A", "C": "C"},
            "c2": {"B": "C", "A": "A", "C": "C"},
            "c2~": {"C": "B", "A": "A", "B": "B"},
            "c3": {"C": "A", "A": "A", "B": "B"},
            "c3~": {"A": "C", "B": "B", "C": "C"},
        },
        {"c1": "c1~", "c1~": "c1", "c2": "c2~", "c2~": "c2", "c3": "c3~", "c3~": "c3"},
    )


class TestConstruction:
    def test_rejects_identity_token(self):
        with pytest.raises(InputError, match="identity"):
            TokenSystem(("S", "T"), ("t",), {"t": {"S": "S", "T": "T"}})

    def test_rejects_partial_action(self):
        with pytest.raises(InputError, match="total|missing"):
            TokenSystem(("S", "T"), ("t",), {"t": {"S": "T"}})

    def test_rejects_single_state(self):
        with pytest.raises(InputError):
            TokenSystem(("S",), ("t",), {"t": {"S": "S"}})

    def test_rejects_fixed_point_pairing(self):
        with pytest.raises(InputError, match="involution"):
            TokenSystem(
                ("S", "T"), ("t",), {"t": {"S": "T", "T": "S"}}, {"t": "t"}
            )

    def test_json_round_trip(self):
        ts = path3()
        again = TokenSystem.from_json_dict(ts.to_json_dict())
        assert again == ts

    @pytest.mark.parametrize("tokens,reverse", [
        (["f", "g"], None),
        ([{"id": "f"}, "g"], None),
        ([{"id": "f", "reverse": "g"}, {"id": "g", "reverse": "f"}], {"f": "g", "g": "f"}),
    ])
    def test_a_document_gives_a_reverse_iff_its_tokens_declare_one(self, tokens, reverse):
        doc = {"states": ["a", "b"], "tokens": tokens, "moves": {"f": {"a": "b"}, "g": {"b": "a"}}}
        assert TokenSystem.from_json_dict(doc).reverse == reverse

    def test_a_reverse_declared_by_some_tokens_only_is_a_parse_error(self):
        doc = {"states": ["a", "b"], "tokens": [{"id": "f", "reverse": "g"}, "g"],
               "moves": {"f": {"a": "b"}, "g": {"b": "a"}}}
        with pytest.raises(ParseError, match="either every token or no token may declare a reverse"):
            TokenSystem.from_json_dict(doc)

    def test_moves_are_built_once(self):
        ts = path3()
        first = ts.moves("f1")
        assert first == frozenset({("P", "Q")})
        assert ts.moves("f1") == first  # built from the index on each call, not kept
        with pytest.raises(InputError, match="unknown token"):
            ts.moves("zz")


def old_family_medium(fam):
    """``family_medium`` as it assembled its tokens, moves and reverses itself."""
    names = {s: set_name(s, fam.ground) for s in fam.sets}
    tokens, moves, reverse = [], {}, {}
    for x in fam.ground:
        add = {names[s - {x}]: names[s] for s in fam.sets if x in s and s - {x} in names}
        if add:
            tokens += [f"add:{x}", f"rem:{x}"]
            moves[f"add:{x}"], moves[f"rem:{x}"] = add, {v: s for s, v in add.items()}
            reverse[f"add:{x}"], reverse[f"rem:{x}"] = f"rem:{x}", f"add:{x}"
    return TokenSystem(tuple(names[s] for s in fam.sets), tuple(tokens), reverse=reverse,
                       moves=moves)


def old_graph_to_medium(g):
    """``graph_to_medium`` as it assembled its tokens, moves and reverses itself."""
    pc = is_partial_cube(g)
    ups = {}
    for (u, v), k in pc.edge_classes.items():
        if k in pc.alpha[u]:
            u, v = v, u
        ups.setdefault(k, {})[u] = v
    tokens, moves, reverse = [], {}, {}
    for k in sorted(ups, key=int):
        a, r = f"add:{k}", f"rem:{k}"
        tokens += [a, r]
        moves[a], moves[r] = ups[k], {v: u for u, v in ups[k].items()}
        reverse[a], reverse[r] = r, a
    return TokenSystem(g.vertices, tuple(tokens), reverse=reverse, moves=moves)


class TestFromPairs:
    def test_backward_tokens_undo_the_forward_moves(self):
        ts = TokenSystem.from_pairs(("a", "b", "c"), [("f", "g", {"a": "b", "b": "c"}),
                                                      ("h", "k", {"c": "a"})])
        assert ts.tokens == ("f", "g", "h", "k")
        assert ts.reverse == {"f": "g", "g": "f", "h": "k", "k": "h"}
        assert ts.moves("g") == {("b", "a"), ("c", "b")}
        assert ts.moves("k") == {("a", "c")}
        for fwd, bwd in (("f", "g"), ("h", "k")):
            assert ts.moves(bwd) == {(v, s) for s, v in ts.moves(fwd)}

    def test_equals_the_system_given_in_full(self):
        ts = TokenSystem.from_pairs(("a", "b"), [("f", "g", {"a": "b"})])
        full = TokenSystem(("a", "b"), ("f", "g"), {"f": {"a": "b", "b": "b"},
                                                    "g": {"a": "a", "b": "a"}}, {"f": "g", "g": "f"})
        assert ts == full == TokenSystem.from_json_dict(ts.to_json_dict())

    def test_empty_forward_moves_are_an_input_error(self):
        with pytest.raises(InputError, match="'f' acts as the identity"):
            TokenSystem.from_pairs(("a", "b"), [("f", "g", {})])
        with pytest.raises(InputError, match="'h' acts as the identity"):
            TokenSystem.from_pairs(("a", "b"), [("f", "g", {"a": "b"}), ("h", "k", {})])

    def test_repeated_ids_are_an_input_error(self):
        with pytest.raises(InputError, match="duplicate token ids"):
            TokenSystem.from_pairs(("a", "b"), [("f", "f", {"a": "b"})])
        with pytest.raises(InputError, match="duplicate token ids"):
            TokenSystem.from_pairs(("a", "b"), [("f", "g", {"a": "b"}), ("g", "h", {"b": "a"})])

    @settings(max_examples=150, deadline=None)
    @given(masks=st.sets(st.integers(0, 15), min_size=2, max_size=10),
           order=st.randoms(use_true_random=False))
    def test_family_medium_matches_the_old_assembly(self, masks, order):
        sets = [frozenset(x for i, x in enumerate("abcd") if m >> i & 1) for m in masks]
        order.shuffle(sets)
        fam = SetFamily(("a", "b", "c", "d"), tuple(sets))
        assert family_medium(fam) == old_family_medium(fam)

    @settings(max_examples=150, deadline=None)
    @given(fam=wg_families(), order=st.randoms(use_true_random=False))
    def test_graph_to_medium_matches_the_old_assembly(self, fam, order):
        if len(fam.sets) < 2:
            fam = SetFamily(fam.ground, (*fam.sets, fam.sets[0] ^ {fam.ground[0]}))
        g = medium_graph(family_medium(fam))
        vertices = list(g.vertices)
        order.shuffle(vertices)
        g = LabeledGraph(tuple(vertices), g.edges)
        assert graph_to_medium(g) == old_graph_to_medium(g)

    def test_graph_to_medium_orders_classes_by_number(self):
        # a path of 12 vertices has 11 classes, so "10" sorts after "9"
        path = LabeledGraph.from_edge_list("".join(f"p{i} p{i + 1}\n" for i in range(11)))
        ts = graph_to_medium(path)
        assert ts == old_graph_to_medium(path)
        assert ts.tokens[-4:] == ("add:9", "rem:9", "add:10", "rem:10")


class TestApply:
    def test_single_edge(self):
        assert apply(two_state(), "S", ["t"]) == "T"

    def test_empty_message_is_identity(self):
        assert apply(two_state(), "S", []) == "S"

    def test_three_transpositions_reverse_the_order(self):
        # oracle: replay the same tokens through the linear-order action
        ts, _ = linear_medium(3)
        msg = ["t:2<1", "t:3<1", "t:3<2"]
        order = LinearOrder(("1", "2", "3"))
        for tok in msg:
            x, y = tok[2], tok[4]
            order = apply_token(order, x, y)
        assert "".join(order.seq) == "321"
        assert apply(ts, "123", msg) == "321"

    def test_unknown_ids_rejected(self):
        with pytest.raises(InputError):
            apply(two_state(), "X", ["t"])
        with pytest.raises(InputError):
            apply(two_state(), "S", ["nope"])


# name: (start state, message, what is_stepwise_effective gives: False or an error's text)
WALKS = {
    "unknown-state-empty-message": ("X", [], "unknown state id"),
    "unknown-token": ("S", ["nope"], "unknown token id"),
    "ineffective-step-before-unknown-token": ("S", ["t", "t", "nope"], False),
    "unknown-token-before-ineffective-step": ("S", ["nope", "t~"], "unknown token id"),
}


@pytest.mark.parametrize("state, message, answer", WALKS.values(), ids=WALKS.keys())
def test_walk_error_paths(state, message, answer):
    """apply walks the whole message, so it raises in every case;
    is_stepwise_effective stops at the first ineffective step, reading no
    token past it."""
    ts = two_state()
    with pytest.raises(InputError, match=answer or "unknown token id"):
        apply(ts, state, message)
    tokens_left = iter(message)
    if answer is False:
        assert is_stepwise_effective(ts, state, tokens_left) is False
        assert list(tokens_left) == ["nope"]
    else:
        with pytest.raises(InputError, match=answer):
            is_stepwise_effective(ts, state, tokens_left)


def dense_steps(ts, state, message):
    """The walk ``apply`` and ``is_stepwise_effective`` shared while they read
    dense rows, here the rows of the system's dense document."""
    action = ts.to_json_dict()["action"]
    if state not in ts.states:
        raise InputError(f"unknown state id {state!r}")
    cur = state
    for t in message:
        row = action.get(t)
        if row is None:
            raise InputError(f"unknown token id {t!r}")
        nxt = row[cur]
        yield cur, nxt
        cur = nxt


def dense_apply(ts, state, message):
    cur = state
    for _, cur in dense_steps(ts, state, message):
        pass
    return cur


def dense_is_stepwise_effective(ts, state, message):
    return all(before != after for before, after in dense_steps(ts, state, message))


def walk_outcome(walk, ts, state, message):
    """What a walk gives, or its InputError's text, and the tokens it left unread."""
    tokens_left = iter(message)
    try:
        result = walk(ts, state, tokens_left)
    except InputError as exc:
        result = f"InputError: {exc}"
    return result, list(tokens_left)


@settings(max_examples=300, deadline=None)
@given(ts=drawn_systems(), data=st.data())
def test_walks_match_the_dense_row_walk(ts, data):
    state = data.draw(st.sampled_from(ts.states) | st.just("zz"))
    message = data.draw(st.lists(st.sampled_from(ts.tokens) | st.sampled_from(["zz", "t9"]), max_size=8))
    for walk, oracle in ((apply, dense_apply), (is_stepwise_effective, dense_is_stepwise_effective)):
        assert walk_outcome(walk, ts, state, message) == walk_outcome(oracle, ts, state, message)


class TestMessages:
    def test_content_collapses_duplicates(self):
        assert content(["t", "t", "s"]) == {"t", "s"}

    def test_content_empty(self):
        assert content([]) == frozenset()

    def test_reverse_pair_is_two_tokens(self):
        assert content(["t", "t~"]) == {"t", "t~"}

    def test_stepwise_stalls_on_fixed_point(self):
        assert is_stepwise_effective(two_state(), "S", ["t", "t"]) is False

    def test_stepwise_single_move(self):
        assert is_stepwise_effective(two_state(), "S", ["t"]) is True

    def test_hexagon_geodesics_are_stepwise(self):
        ts, fam = linear_medium(3)
        for s, v in itertools.permutations(ts.states, 2):
            msg = straight_message(ts, s, v)
            assert msg is not None
            assert is_stepwise_effective(ts, s, msg)

    def test_consistency_and_vacuousness(self):
        ts = two_state()
        assert is_consistent(ts, ["t", "t~"]) is False
        assert is_vacuous(ts, ["t", "t~"]) is True

    def test_two_pairs_vacuous(self):
        ts = path3()
        assert is_vacuous(ts, ["f1", "f2", "b1", "b2"]) is True

    def test_odd_count_not_vacuous(self):
        ts = two_state()
        assert is_vacuous(ts, ["t", "t", "t~"]) is False

    def test_message_reverse(self):
        ts = path3()
        assert message_reverse(ts, ["f1", "f2"]) == ("b2", "b1")


class TestStraightMessage:
    def test_two_state(self):
        assert straight_message(two_state(), "S", "T") == ("t",)

    def test_none_when_unreachable(self):
        stranded = reduction(path3(), ["P", "R"])
        assert straight_message(stranded, "P", "R") is None

    def test_equal_endpoints_rejected(self):
        with pytest.raises(InputError):
            straight_message(two_state(), "S", "S")

    def test_hexagon_antipodal_content_is_symmetric_difference(self):
        ts, fam = linear_medium(3)
        msg = straight_message(ts, "123", "321")
        assert len(msg) == 3
        # token t:x<y adds pair x<y when x<y agrees with the base order,
        # else removes pair y<x; the content must realize encode(123) ^ encode(321)
        touched = set()
        for tok in msg:
            x, y = tok[2], tok[4]
            touched.add(f"{x}<{y}" if x < y else f"{y}<{x}")
        start = encode(LinearOrder(("1", "2", "3")), LinearOrder(("1", "2", "3")))
        end = encode(LinearOrder(("3", "2", "1")), LinearOrder(("1", "2", "3")))
        assert touched == set(start ^ end)
        assert len(msg) == distance(start, end)


class TestCheckAxioms:
    def test_two_state_all_hold(self):
        report = check_axioms(two_state())
        assert report.ok
        assert [c.verdict for c in report.checks] == ["holds"] * 4
        walked = walks.bounded_report(two_state(), report.bound)
        assert walks.passes(walked)
        assert walked["M1"].verdict == "holds"
        assert walked["M2"].verdict == "holds"
        assert walked["M3"].verdict == "holds-up-to-bound"
        assert walked["M4"].verdict == "holds-up-to-bound"

    def test_reduction_to_endpoints_fails_m2(self):
        stranded = reduction(path3(), ["P", "R"])
        report = check_axioms(stranded, bound=4)
        assert not report.ok
        assert report["M2"].verdict == "fails"
        w = report["M2"].witness
        assert {w["source"], w["target"]} == {"P", "R"}

    def test_three_cycle_fails_m3_with_replayable_witness(self):
        ts = three_cycle()
        report = check_axioms(ts, bound=4)
        assert report["M3"].verdict == "fails"
        w = report["M3"].witness
        assert apply(ts, w["state"], w["message"]) == w["state"]
        assert is_stepwise_effective(ts, w["state"], w["message"])
        assert not is_vacuous(ts, w["message"])

    def test_missing_pairing_fails_m1_and_skips_rest(self):
        ts = TokenSystem(
            ("S", "T"),
            ("t", "u"),
            {"t": {"S": "T", "T": "T"}, "u": {"T": "S", "S": "S"}},
        )
        report = check_axioms(ts, bound=2)
        assert report["M1"].verdict == "fails"
        assert report["M1"].witness["kind"] == "missing-reverse-pairing"
        assert report["M2"].verdict == "skipped"

    def test_wrong_pairing_fails_m1_with_replay(self):
        ts = TokenSystem(
            ("A", "B", "C"),
            ("t", "u"),
            {"t": {"A": "B", "B": "B", "C": "C"}, "u": {"A": "A", "B": "B", "C": "A"}},
            {"t": "u", "u": "t"},
        )
        report = check_axioms(ts, bound=2)
        w = report["M1"].witness
        assert w["kind"] == "declared-not-reverse"
        assert apply(ts, w["state"], w["message"]) != w["state"]

    def test_duplicate_action_tokens_are_ambiguous(self):
        ts = TokenSystem(
            ("S", "T"),
            ("t", "t2", "u", "u2"),
            {
                "t": {"S": "T", "T": "T"},
                "t2": {"S": "T", "T": "T"},
                "u": {"T": "S", "S": "S"},
                "u2": {"T": "S", "S": "S"},
            },
            {"t": "u", "u": "t", "t2": "u2", "u2": "t2"},
        )
        report = check_axioms(ts, bound=2)
        assert report["M1"].verdict == "fails"
        assert report["M1"].witness["kind"] == "ambiguous-reverse"
        assert report["M1"].witness["token"] == "t"
        assert report["M1"].witness["candidates"] == ["u", "u2"]


class TestReduction:
    def test_middle_state_removal_empties_tokens(self):
        stranded = reduction(path3(), ["P", "R"])
        assert stranded.tokens == ()
        assert stranded.states == ("P", "R")

    def test_identity_reduction(self):
        ts = path3()
        again = reduction(ts, ts.states)
        assert again.states == ts.states
        assert again.tokens == ts.tokens
        assert dense_action(again) == dense_action(ts)
        assert again.reverse == ts.reverse

    def test_cube_to_chain_is_a_medium(self):
        cube = family_medium(power_set_family("abcd"))
        chain = ["{}", "{a}", "{a,b}"]
        reduced = reduction(cube, chain)
        report = check_axioms(reduced, bound=8)
        assert report.ok

    def test_idempotent(self):
        cube = family_medium(power_set_family("abc"))
        keep = ["{}", "{a}", "{a,b}", "{b}"]
        once = reduction(cube, keep)
        assert reduction(once, keep) == once

    def test_small_subset_rejected(self):
        with pytest.raises(InputError):
            reduction(path3(), ["P"])


def _all_straight_messages(ts, source, max_len):
    """Exhaustive straight-message enumeration (independent of the BFS search)."""
    rev, act = ts.reverse, dense_action(ts)
    out = []

    def walk(cur, path, used):
        if path:
            out.append((cur, tuple(path)))
        if len(path) == max_len:
            return
        for t in ts.tokens:
            v = act[t][cur]
            if v == cur or rev[t] in used:
                continue
            path.append(t)
            walk(v, path, used | {t})
            path.pop()

    walk(source, [], frozenset())
    return out


class TestMediumInvariants:
    def test_bounded_m3_scan_on_corpus(self, corpus):
        for name, ts in corpus:
            if len(ts.states) > 20:
                continue
            report = check_axioms(ts, bound=5)
            assert report.ok, name

    def test_straight_messages_never_repeat_tokens(self, corpus):
        for name, ts in corpus:
            for s, v in itertools.islice(itertools.permutations(ts.states, 2), 60):
                msg = straight_message(ts, s, v)
                assert msg is not None, name
                assert len(content(msg)) == len(msg), name

    def test_equal_targets_mean_equal_contents(self, corpus):
        for name, ts in corpus:
            if len(ts.states) > 8:
                continue
            pairs = len(ts.tokens) // 2
            seen: dict[tuple[str, str], frozenset] = {}
            for s in ts.states:
                for end, msg in _all_straight_messages(ts, s, pairs):
                    key = (s, end)
                    c = content(msg)
                    assert seen.setdefault(key, c) == c, (name, key)


# --- the plain enumeration, the oracle for the memoized falsifiers ---------


def _violates_m2(ts, rev):
    for s in ts.states:
        for v in ts.states:
            if v != s and _straight_search(ts, s, v, rev) is None:
                return {"axiom": "M2", "source": s, "target": v}
    return None


def _violates_m3(ts, rev, bound):
    act = dense_action(ts)
    tokens = ts.tokens
    index = {t: i for i, t in enumerate(tokens)}
    canon = {t: (t if index[t] < index[rev[t]] else rev[t]) for t in tokens}
    for s0 in ts.states:
        path: list[str] = []
        diff: dict[str, int] = {}
        unbalanced = 0

        def walk(cur):
            nonlocal unbalanced
            if len(path) >= bound:
                return None
            for t in tokens:
                v = act[t][cur]
                if v == cur:
                    continue
                key = canon[t]
                old = diff.get(key, 0)
                new = old + (1 if key == t else -1)
                diff[key] = new
                if old == 0:
                    unbalanced += 1
                elif new == 0:
                    unbalanced -= 1
                path.append(t)
                if v == s0 and unbalanced:
                    return {
                        "axiom": "M3",
                        "kind": "ineffective-but-not-vacuous",
                        "state": s0,
                        "message": list(path),
                    }
                if v != s0 and not unbalanced:
                    return {
                        "axiom": "M3",
                        "kind": "vacuous-but-effective",
                        "state": s0,
                        "message": list(path),
                        "end": v,
                    }
                found = walk(v)
                if found:
                    return found
                path.pop()
                diff[key] = old
                if old == 0:
                    unbalanced -= 1
                elif new == 0:
                    unbalanced += 1
            return None

        witness = walk(s0)
        if witness:
            return witness
    return None


def _violates_m4(ts, rev, bound):
    act = dense_action(ts)
    tokens = ts.tokens
    # first straight message seen per (produced state, content token)
    record: dict[tuple[str, str], tuple[str, tuple[str, ...]]] = {}
    for s0 in ts.states:
        path: list[str] = []
        used: set[str] = set()

        def walk(cur):
            if len(path) >= bound:
                return None
            for t in tokens:
                v = act[t][cur]
                if v == cur or rev[t] in used:
                    continue
                fresh = t not in used
                used.add(t)
                path.append(t)
                for tok in used:
                    prior = record.get((v, rev[tok]))
                    if prior is not None:
                        return {
                            "axiom": "M4",
                            "produced": v,
                            "state1": s0,
                            "message1": list(path),
                            "state2": prior[0],
                            "message2": list(prior[1]),
                        }
                frozen = tuple(path)
                for tok in used:
                    record.setdefault((v, tok), (s0, frozen))
                found = walk(v)
                if found:
                    return found
                path.pop()
                if fresh:
                    used.discard(t)
            return None

        witness = walk(s0)
        if witness:
            return witness
    return None


def paired_system(n, pairs):
    """States s0..s(n-1); pair p is tokens tp and up, each given by the
    state indices it moves (index -> image index)."""
    states = tuple(f"s{i}" for i in range(n))
    toks, action, rev = [], {}, {}
    for p, moved_pair in enumerate(pairs):
        t, u = f"t{p}", f"u{p}"
        for tok, moved in zip((t, u), moved_pair):
            toks.append(tok)
            action[tok] = {s: states[moved.get(i, i)] for i, s in enumerate(states)}
        rev[t], rev[u] = u, t
    return TokenSystem(states, tuple(toks), action, rev)


#: The smallest non-media failing each axiom first (found by a random search),
#: with the witness check_axioms gives.
FIRST_FAILURES = {
    "M1": (paired_system(3, [({0: 1, 2: 1}, {0: 1, 1: 0, 2: 0})]),
           {"axiom": "M1", "kind": "declared-not-reverse", "token": "t0", "declared": "u0",
            "state": "s2", "message": ["t0", "u0"]}),
    "M2": (paired_system(3, [({2: 0}, {0: 2})]),
           {"axiom": "M2", "source": "s0", "target": "s1"}),
    "M3": (paired_system(3, [({0: 2, 1: 0, 2: 1}, {0: 1, 1: 2, 2: 0})]),
           {"axiom": "M3", "kind": "ineffective-but-not-vacuous", "state": "s2",
            "message": ["t0", "t0", "t0"]}),
    "M4": (paired_system(3, [({0: 1, 1: 2}, {1: 0, 2: 1})]),
           {"axiom": "M4", "produced": "s1", "state1": "s0", "message1": ["t0"],
            "state2": "s2", "message2": ["u0"]}),
}


def _messages_up_to(ts, bound):
    """How many stepwise-effective messages of length 1..bound start anywhere."""
    ending = {s: 1 for s in ts.states}
    total, act = 0, dense_action(ts)
    for _ in range(bound):
        ending = {s: sum(ending[v] for t in ts.tokens if (v := act[t][s]) != s)
                  for s in ts.states}
        total += sum(ending.values())
    return total


@st.composite
def systems_with_bounds(draw):
    """3-5 states and 1-3 reverse pairs; a pair is mostly a partial injection
    and its inverse, else two arbitrary non-identity maps.  The bound (1-10)
    keeps the plain enumeration under about 20,000 messages."""
    n = draw(st.integers(3, 5))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 3)):
            image = draw(st.permutations(range(n)))
            keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            moved = {i: image[i] for i in range(n) if keep[i] and image[i] != i} or {0: 1}
            pairs.append((moved, {v: i for i, v in moved.items()}))
        else:
            maps = []
            for _ in range(2):
                row = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
                maps.append({i: v for i, v in enumerate(row) if v != i} or {0: 1})
            pairs.append(tuple(maps))
    ts = paired_system(n, pairs)
    top = 1
    while top < 10 and _messages_up_to(ts, top + 1) <= 20000:
        top += 1
    return ts, draw(st.integers(1, top))


class TestMemoizedFalsifier:
    @pytest.mark.parametrize("axiom", sorted(FIRST_FAILURES))
    def test_each_axiom_has_a_non_medium_failing_it_first(self, axiom):
        ts, witness = FIRST_FAILURES[axiom]
        report = check_axioms(ts, bound=8)
        assert next(c for c in report.checks if c.verdict == "fails").axiom == axiom
        assert report[axiom].witness == witness
        walked = walks.bounded_report(ts, 8)
        assert next(c for c in walked.checks if c.verdict == "fails").axiom == axiom
        assert decide_medium(ts).witness == witness

    @settings(max_examples=300, deadline=None)
    @given(case=systems_with_bounds())
    @example(case=(FIRST_FAILURES["M1"][0], 8))
    @example(case=(FIRST_FAILURES["M2"][0], 8))
    @example(case=(FIRST_FAILURES["M3"][0], 8))
    @example(case=(FIRST_FAILURES["M4"][0], 8))
    @example(case=(linear_medium(3)[0], 6))
    def test_witnesses_match_the_plain_enumeration(self, case):
        ts, bound = case
        rev = ts.reverse
        w2 = _violates_m2(ts, rev)
        w3 = _violates_m3(ts, rev, bound)
        w4 = _violates_m4(ts, rev, bound)
        assert walks.violates_m2(ts, rev) == w2
        assert walks.violates_m3(ts, rev, bound) == w3
        assert walks.violates_m4(ts, rev, bound) == w4
        # the M2 walk is exact; an M3 or M4 violation found within the bound
        # the exact report finds too, unless it skipped the axiom
        report = check_axioms(ts, bound)
        if report["M1"].ok:
            assert report["M2"].verdict in ("fails" if w2 else "holds", "skipped")
            for a, w in (("M3", w3), ("M4", w4)):
                if w:
                    assert report[a].verdict in ("fails", "skipped")

    @pytest.mark.parametrize("n, bound", [(4, 24), (5, 40)])
    def test_default_bound_holds_on_linear_media(self, n, bound):
        ts, _ = linear_medium(n)
        report = check_axioms(ts)
        assert report.bound == bound
        assert [c.verdict for c in report.checks] == ["holds"] * 4
        walked = walks.bounded_report(ts, report.bound)
        assert walks.passes(walked)
        assert walked["M3"].verdict == walked["M4"].verdict == "holds-up-to-bound"

    def test_reverse_defect_runs_once_per_system(self, monkeypatch):
        # the decision is the one caller of reverse_defect, and check_axioms reads M1 off it
        calls = []
        find = represent.reverse_defect
        monkeypatch.setattr(represent, "reverse_defect", lambda ts: calls.append(ts) or find(ts))
        m1_failure = FIRST_FAILURES["M1"][0]
        for ts in (path3(), TokenSystem.from_json_dict(m1_failure.to_json_dict())):
            report = check_axioms(ts, bound=4)
            decision = decide_medium(ts)
            assert report["M1"].witness == (None if decision.is_medium else decision.witness)
        assert len(calls) == 2
