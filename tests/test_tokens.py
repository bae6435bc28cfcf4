import itertools

import pytest

from tokenmedia.errors import InputError
from tokenmedia.families import distance, family_medium
from tokenmedia.linorders import LinearOrder, apply_token, encode, linear_medium
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
)

from conftest import path3, power_set_family, two_state


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

    def test_moves_are_built_once(self):
        ts = path3()
        first = ts.moves("f1")
        assert first == frozenset({("P", "Q")})
        assert ts.moves("f1") is first
        with pytest.raises(InputError, match="unknown token"):
            ts.moves("zz")


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
        assert report["M1"].verdict == "holds"
        assert report["M2"].verdict == "holds"
        assert report["M3"].verdict == "holds-up-to-bound"
        assert report["M4"].verdict == "holds-up-to-bound"

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
        assert again.action == ts.action
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
    rev = ts.reverse
    out = []

    def walk(cur, path, used):
        if path:
            out.append((cur, tuple(path)))
        if len(path) == max_len:
            return
        for t in ts.tokens:
            v = ts.action[t][cur]
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
