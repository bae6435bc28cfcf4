"""``check_axioms`` is exact on every token system.

On a medium it reads the exact decision and reports M1-M4 "holds" without
walking a message.  On any other system that passes M1 it reads M2-M4 off
token-pair potentials.  The oracle is the bounded falsifier those replaced,
kept in ``walks``: at bound 2S + 1 (S states) every verdict the potentials
evaluate must equal the walks' verdict, every "fails" witness must replay,
and M2, M3 and M4 hold together exactly when ``decide_medium`` says medium.
The decision's witness on a non-medium is the first failing axiom's.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tokenmedia import cli, families, represent
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.represent import decide_medium
from tokenmedia.tokens import (
    AXIOMS,
    FAILS,
    HOLDS,
    SKIPPED,
    TokenSystem,
    apply,
    check_axioms,
    is_consistent,
    is_stepwise_effective,
    is_vacuous,
    reverse_defect,
    straight_message,
)

import walks
from conftest import no_walks, two_state, twisted_square, union6, wg_families
from test_tokens import paired_system


def open_square():
    """From s0, t0 then t1 ends at s2 and t1 then t0 at s4: every move agrees
    with the potentials, but s2 and s4 share one, so M3 fails."""
    return paired_system(5, [({0: 1, 3: 4}, {1: 0, 4: 3}), ({1: 2, 0: 3}, {2: 1, 3: 0})])


def assert_witness_replays(ts, axiom, w):
    """A "fails" witness of M2, M3 or M4 checks out against the action table."""
    assert w["axiom"] == axiom
    if axiom == "M2":
        assert w["source"] != w["target"]
        assert straight_message(ts, w["source"], w["target"]) is None
    elif axiom == "M3":
        message = w["message"]
        assert is_stepwise_effective(ts, w["state"], message)
        end = apply(ts, w["state"], message)
        if w["kind"] == "vacuous-but-effective":
            assert is_vacuous(ts, message) and end == w["end"] != w["state"]
        else:
            assert w["kind"] == "ineffective-but-not-vacuous"
            assert not is_vacuous(ts, message) and end == w["state"]
    else:
        for state, message in ((w["state1"], w["message1"]), (w["state2"], w["message2"])):
            assert is_stepwise_effective(ts, state, message) and is_consistent(ts, message)
            assert apply(ts, state, message) == w["produced"]
        assert not is_consistent(ts, [*w["message1"], *w["message2"]])


def assert_exact(ts):
    """The report of a fresh copy of ts against the walks at bound 2S + 1 and
    against the decision; returns the report."""
    fresh = TokenSystem.from_json_dict(ts.to_json_dict())  # nothing stored yet
    report = check_axioms(fresh)
    decision = decide_medium(ts)
    if decision.is_medium:
        assert [c.verdict for c in report.checks] == [HOLDS] * 4
        return report
    walked = walks.bounded_report(ts, 2 * len(ts.states) + 1)
    for check in report.checks:
        assert check.verdict in (HOLDS, FAILS, SKIPPED)
        if check.verdict != SKIPPED:
            assert (check.verdict == FAILS) == (walked[check.axiom].verdict == FAILS), check.axiom
        if check.verdict == FAILS and check.axiom != "M1":
            assert_witness_replays(ts, check.axiom, check.witness)
    if report["M1"].verdict == FAILS:
        assert [c.verdict for c in report.checks[1:]] == [SKIPPED] * 3
    elif report["M3"].verdict == FAILS:
        assert report["M4"].note == "not evaluated: M3 failed"
        assert report["M2"].verdict == (FAILS if report["M2"].witness else SKIPPED)
    else:
        assert SKIPPED not in [c.verdict for c in report.checks]
    # M1-M4 hold iff medium, and the decision names the first failing axiom
    assert report.ok is False
    assert decision.witness == next(c.witness for c in report.checks if c.verdict == FAILS)
    return report


@st.composite
def small_systems(draw):
    """3-4 states and 1-2 token pairs, each pair a partial injection and its
    inverse or two arbitrary non-identity maps; the pairing is declared
    unless a draw drops it."""
    n = draw(st.integers(3, 4))
    states = tuple(f"s{i}" for i in range(n))
    toks, action, rev = [], {}, {}
    for p in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 2)):
            image = draw(st.permutations(range(n)))
            keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            moved = {i: image[i] for i in range(n) if keep[i] and image[i] != i} or {0: 1}
            maps = (moved, {v: i for i, v in moved.items()})
        else:
            maps = tuple({i: v for i, v in enumerate(draw(st.lists(
                st.integers(0, n - 1), min_size=n, max_size=n))) if v != i} or {0: 1}
                for _ in range(2))
        t, u = f"t{p}", f"u{p}"
        for tok, moved in zip((t, u), maps):
            toks.append(tok)
            action[tok] = {s: states[moved.get(i, i)] for i, s in enumerate(states)}
        rev[t], rev[u] = u, t
    return TokenSystem(states, tuple(toks), action, rev if draw(st.integers(0, 7)) else None)


@st.composite
def family_systems(draw):
    """The medium of a well graded family, or the system of an arbitrary
    family of two to eight subsets of at most four elements."""
    if draw(st.booleans()):
        fam = draw(wg_families())
        if len(fam.sets) < 2:
            fam = SetFamily(fam.ground, (*fam.sets, fam.sets[0] ^ {fam.ground[0]}))
        return family_medium(fam)
    ground = "abcd"[:draw(st.integers(1, 4))]
    masks = draw(st.sets(st.integers(0, (1 << len(ground)) - 1), min_size=2, max_size=8))
    return family_medium(SetFamily.of(ground, [{x for i, x in enumerate(ground) if m >> i & 1}
                                               for m in sorted(masks)]))


@st.composite
def m1_systems(draw):
    """3-6 states and 1-3 token pairs, each a partial injection and its
    inverse, so that M1 holds unless two pairs move alike."""
    n = draw(st.integers(3, 6))
    states = tuple(f"s{i}" for i in range(n))
    toks, action, rev = [], {}, {}
    for p in range(draw(st.integers(1, 3))):
        image = draw(st.permutations(range(n)))
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        moved = {i: image[i] for i in range(n) if keep[i] and image[i] != i} or {0: 1}
        t, u = f"t{p}", f"u{p}"
        for tok, m in ((t, moved), (u, {v: i for i, v in moved.items()})):
            toks.append(tok)
            action[tok] = {s: states[m.get(i, i)] for i, s in enumerate(states)}
        rev[t], rev[u] = u, t
    ts = TokenSystem(states, tuple(toks), action, rev)
    assume(reverse_defect(ts) is None)
    return ts


@settings(max_examples=400, deadline=None)
@given(ts=st.one_of(small_systems(), family_systems()))
@example(ts=two_state())
@example(ts=twisted_square())
@example(ts=linear_medium(3)[0])
def test_media_hold_without_walks_and_the_rest_match_the_reference(ts):
    if decide_medium(ts).is_medium:
        with no_walks():
            report = assert_exact(ts)
        assert report.to_json_dict() == {"axioms": {a: {"verdict": HOLDS} for a in AXIOMS}}
    else:
        assert_exact(ts)


@settings(max_examples=500, deadline=None)
@given(ts=m1_systems())
@example(ts=twisted_square())
@example(ts=open_square())
def test_verdicts_match_the_walks_on_systems_passing_m1(ts):
    assert_exact(ts)


def test_two_states_sharing_a_potential_fail_m3():
    report = assert_exact(open_square())
    assert report["M3"].witness == {"axiom": "M3", "kind": "vacuous-but-effective", "state": "s2",
                                    "message": ["u1", "u0", "t1", "t0"], "end": "s4"}


def test_union6_is_decided_without_walks():
    ts = union6()
    with no_walks():
        report = check_axioms(ts)
        decision = decide_medium(ts)
    assert {c.axiom: c.verdict for c in report.checks} == {
        "M1": HOLDS, "M2": FAILS, "M3": HOLDS, "M4": HOLDS}
    assert decision.witness == report["M2"].witness == {
        "axiom": "M2", "source": "a123456", "target": "b123456"}
    assert_witness_replays(ts, "M2", decision.witness)


def test_a_disconnected_system_is_decided_at_the_bfs():
    # its witness is the disconnection; the components are tested once check_axioms asks
    ts = union6()
    spy = mock.Mock(wraps=families._moves_separate)
    with mock.patch.object(families, "_moves_separate", spy), mock.patch.object(represent, "_moves_separate", spy):
        decision = decide_medium(ts)
        assert spy.call_count == 0 and decision.witness["axiom"] == "M2"
        assert check_axioms(ts)["M4"].verdict == HOLDS
        assert spy.call_count == 2  # once per component


def test_check_of_union6_exits_one_without_walks(tmp_path):
    path = tmp_path / "union6.json"
    path.write_text(json.dumps(union6().to_json_dict()))
    out, err = io.StringIO(), io.StringIO()
    with no_walks(), redirect_stdout(out), redirect_stderr(err):
        assert cli.main(["check", str(path)]) == 1
    doc = json.loads(out.getvalue())
    assert {a: c["verdict"] for a, c in doc["axioms"]["axioms"].items()} == {
        "M1": HOLDS, "M2": FAILS, "M3": HOLDS, "M4": HOLDS}
    assert doc["decision"]["witness"] == doc["axioms"]["axioms"]["M2"]["witness"]
    assert err.getvalue() == "not a medium (M2)\n"


def test_decision_runs_no_per_state_search():
    # an induced path of the 3-cube whose ends are at distance 2, not 4: M3
    # holds, the system is connected, and M2's separation test fails
    snake = SetFamily.of("abc", [set(), {"a"}, {"a", "b"}, {"a", "b", "c"}, {"b", "c"}])
    ts = family_medium(snake)
    with mock.patch.object(represent, "_m4_search", side_effect=AssertionError("search ran")):
        decision = decide_medium(ts)
    assert decision.witness["axiom"] == "M2"
    assert_witness_replays(ts, "M2", decision.witness)
    report = check_axioms(ts)  # the report does search, and M4 holds
    assert [c.verdict for c in report.checks] == [HOLDS, FAILS, HOLDS, HOLDS]


def two_level_path():
    """A 9-state path A, v0, ..., v6, B2 on four token pairs, each "-" token
    undoing its "+" token.  M1 and M3 hold and M2 fails (v0 and v3 differ
    only in b, but no move from v0 moves b), so the separation test fails."""
    path = ("A", "v0", "v1", "v2", "v3", "v4", "v5", "v6", "B2")
    steps = ("x+", "a+", "b+", "a-", "c+", "a+", "b-", "x+")
    forward: dict = {c: {} for c in "xabc"}
    for u, v, t in zip(path, path[1:], steps):
        if t[1] == "+":
            forward[t[0]][u] = v
        else:
            forward[t[0]][v] = u
    return TokenSystem.from_pairs(path, ((c + "+", c + "-", ms) for c, ms in forward.items()))


def test_a_pair_moving_at_two_levels_need_not_break_m4():
    # the level lemma is false: x+ moves at levels 1 and 2 of the one
    # component, yet M4 holds, so M4 off the separation test needs _m4_search
    ts = two_level_path()
    report = assert_exact(ts)
    assert [c.verdict for c in report.checks] == [HOLDS, FAILS, HOLDS, HOLDS]
    assert report["M2"].witness == {"axiom": "M2", "source": "v0", "target": "v3"}
    assert walks.bounded_report(ts, 2 * len(ts.states) + 1)["M4"].verdict == walks.HOLDS_UP_TO_BOUND
    ev = represent._potentials(ts)
    assert len(ev.comps) == 1 and ev.separation[0] is not None
    assert {(ev.lab[j] & ev.fields[0]).bit_count() for i in ev.comps[0] for j, t in ev.out[i] if t == "x+"} == {1, 2}
    assert represent._m4_search(ts, ev, ev.comps[0]) is None
    # the level test's witness is no witness: its first message is not straight
    w = represent._m4_bounds(ts, ev, ev.comps[0])
    assert w["message1"] == ["x+", "a+", "b+", "a-", "c+", "a+", "b-"]
    assert not is_consistent(ts, w["message1"])
