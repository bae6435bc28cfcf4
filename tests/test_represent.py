import itertools
import random
from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tokenmedia import tokens
from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily, distance, family_medium
from tokenmedia.linorders import linear_medium, pair_name
from tokenmedia.represent import (
    ContentTable,
    EmbeddingReport,
    Orientation,
    contents,
    decide_medium,
    orient_from_state,
    orientation_from_positive,
    positive_content_family,
    verify_embedding,
)
from tokenmedia.tokens import TokenSystem, reduction, straight_message

import walks
from conftest import dense_action, hexagon_family, hexagon_variant_family, path3, two_state, wg_families
from frozenset_labels import SetRepresentation, assert_reads_the_same
from test_exact_check import small_systems


# --- oracles ----------------------------------------------------------------


def bfs_contents(ts, base=None):
    """Contents from geodesics out of one base state, checked as they are built.

    Along a shortest-path tree the content difference across an edge is the
    edge's token, so one breadth-first pass plus the one-per-pair rule
    determines every content.  Violations of the content invariants raise
    InputError.
    """
    rev = ts.reverse
    if rev is None:
        raise InputError("contents need a reverse pairing")
    if base is None:
        base = ts.states[0]
    gained, act = {base: frozenset()}, dense_action(ts)
    queue = deque([base])
    while queue:
        cur = queue.popleft()
        for t in ts.tokens:
            v = act[t][cur]
            if v != cur and v not in gained:
                gained[v] = gained[cur] | {t}
                queue.append(v)
    if len(gained) != len(ts.states):
        raise InputError("state graph is not connected; not a medium")
    outward = frozenset().union(*gained.values())
    for t in outward:
        if rev[t] in outward:
            raise InputError("content pair rule violated; not a medium")
    for t in ts.tokens:
        if t not in outward and rev[t] not in outward:
            raise InputError(f"token pair {t!r}/{rev[t]!r} unreachable from base")
    base_content = frozenset(rev[t] for t in outward)
    table = {
        s: g | frozenset(o for o in base_content if rev[o] not in g)
        for s, g in gained.items()
    }
    if len(set(table.values())) != len(ts.states):
        raise InputError("two states share a content; not a medium")
    return ContentTable(base, table)


def table_orient_from_state(ts, s0):
    """The orientation whose negative class is the content of s0, read off
    the full contents table (the former route)."""
    table = contents(ts, base=s0)
    negative = table.contents[s0]
    return Orientation(frozenset(ts.tokens) - negative, negative)


def table_positive_content_family(ts, orientation):
    """The positive-content family cut out of the full contents table, one
    intersection per state (the former route)."""
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
    return SetRepresentation(family, alpha, beta)


def assert_matches_the_table_route(ts, orientation):
    """positive_content_family equals the table route, or both raise InputError."""
    try:
        want = table_positive_content_family(ts, orientation)
    except InputError:
        with pytest.raises(InputError):
            positive_content_family(ts, orientation)
        return
    assert_reads_the_same(positive_content_family(ts, orientation), want)


def assert_transports(ts, rep):
    """s.t = v iff alpha(s).beta(t) = alpha(v), checked for every token and
    state, plus the normalization of the family: empty intersection, union
    equal to the ground."""
    alpha, family, act = rep.alpha, rep.family, dense_action(ts)
    members = set(family.sets)
    for t in ts.tokens:
        x, pol = rep.beta[t]
        for s in ts.states:
            image = alpha[s]
            moved = image | {x} if pol == "add" else image - {x}
            expected = moved if moved != image and moved in members else image
            assert alpha[act[t][s]] == expected, (t, s)
    assert not frozenset.intersection(*family.sets)
    assert frozenset().union(*family.sets) == frozenset(family.ground)


def lazy_four_cycle():
    """The 4-cycle family medium whose pair a refuses to act on one edge."""
    good = family_medium(SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}]))
    action = dense_action(good)
    action["add:a"]["{b}"] = "{b}"
    action["rem:a"]["{a,b}"] = "{a,b}"
    return TokenSystem(good.states, good.tokens, action, good.reverse)


ORACLE_MEDIA = {
    **{f"linear-{n}": (lambda n=n: linear_medium(n)[0]) for n in (3, 4, 5)},
    **{f"mosaic-{kind}": (lambda kind=kind: arrangement_medium(mosaic_window(kind, 1)))
       for kind in ("triangular", "truncated-square")},
}


def assert_agrees_with_oracles(ts):
    for base in ts.states:
        assert contents(ts, base) == bfs_contents(ts, base), base
        orientation = orient_from_state(ts, base)
        assert orientation == table_orient_from_state(ts, base)
        assert_matches_the_table_route(ts, orientation)
        assert_transports(ts, positive_content_family(ts, orientation))


def assert_partial_orientations_match_the_table_route(ts, rng):
    """Orientations that leave some pairs with no positive token, or make
    either token of a pair positive at random, read like the table route."""
    rev = ts.reverse
    firsts = [t for t in ts.tokens if ts.tokens.index(t) < ts.tokens.index(rev[t])]
    for _ in range(4):
        positive = set()
        for t in firsts:
            positive |= rng.choice([set(), {t}, {rev[t]}])
        assert_matches_the_table_route(ts, orientation_from_positive(ts, positive))


def test_corpus_agrees_with_oracles(corpus):
    rng = random.Random(23)
    for _, ts in corpus:
        assert_agrees_with_oracles(ts)
        assert_partial_orientations_match_the_table_route(ts, rng)


@pytest.mark.parametrize("name", sorted(ORACLE_MEDIA))
def test_named_media_agree_with_oracles(name):
    ts = ORACLE_MEDIA[name]()
    assert_agrees_with_oracles(ts)
    assert_partial_orientations_match_the_table_route(ts, random.Random(name))


@settings(max_examples=150, deadline=None)
@given(wg_families(), st.integers(0, 2**32 - 1))
def test_well_graded_family_media_agree_with_oracles(fam, seed):
    ts = family_medium(fam)
    assert_agrees_with_oracles(ts)
    assert_partial_orientations_match_the_table_route(ts, random.Random(seed))


def test_decision_is_computed_once():
    ts = family_medium(hexagon_family())
    decision = decide_medium(ts)
    assert decide_medium(ts) is decision
    positive_content_family(ts, orient_from_state(ts, ts.states[-1]))
    assert decide_medium(ts) is decision


def test_content_table_is_built_once():
    ts = family_medium(hexagon_family())
    table = contents(ts).contents
    again = contents(ts, base=ts.states[-1])
    assert again.contents == table and again.base == ts.states[-1]  # built on each call, not kept
    positive_content_family(ts, orient_from_state(ts, ts.states[-1]))
    assert contents(ts).contents == table
    with pytest.raises(InputError):
        contents(ts, base="no such state")


def test_non_medium_raises_input_error():
    lazy = lazy_four_cycle()
    assert not decide_medium(lazy).is_medium
    with pytest.raises(InputError):
        contents(lazy)
    with pytest.raises(InputError):
        orient_from_state(lazy, lazy.states[0])
    adds = orientation_from_positive(lazy, {t for t in lazy.tokens if t.startswith("add:")})
    with pytest.raises(InputError):
        positive_content_family(lazy, adds)


class TestContents:
    def test_two_state(self):
        table = contents(two_state())
        assert table.contents["S"] == {"t~"}
        assert table.contents["T"] == {"t"}

    def test_hexagon_cardinalities(self):
        ts, _ = linear_medium(3)
        table = contents(ts)
        assert {len(c) for c in table.contents.values()} == {3}

    def test_adjacent_difference_is_the_edge_token(self, corpus):
        for name, ts in corpus:
            table = contents(ts)
            for t in ts.tokens:
                for (s, v) in ts.moves(t):
                    assert table.contents[v] - table.contents[s] == {t}, name

    def test_base_independent(self):
        ts, _ = linear_medium(3)
        tables = [contents(ts, base=s).contents for s in ts.states]
        assert all(t == tables[0] for t in tables)

    def test_pair_rule_and_injectivity(self, corpus):
        for name, ts in corpus:
            table = contents(ts)
            for s in ts.states:
                c = table.contents[s]
                for t in ts.tokens:
                    assert (t in c) != (ts.reverse[t] in c), name
            values = list(table.contents.values())
            assert len(set(values)) == len(values), name


class TestOrientation:
    def test_two_state(self):
        ori = orient_from_state(two_state(), "S")
        assert ori.negative == {"t~"} and ori.positive == {"t"}

    def test_hexagon_from_empty_vertex(self):
        ts, _ = linear_medium(3)
        ori = orient_from_state(ts, "321")  # the state encoding to the empty set
        adds = {t for t in ts.tokens if t[2] < t[4]}
        assert ori.positive == adds

    def test_antipodal_base_flips_polarity(self):
        ts, _ = linear_medium(3)
        a = orient_from_state(ts, "321")
        b = orient_from_state(ts, "123")
        assert a.positive == b.negative and a.negative == b.positive

    def test_partition_validated(self):
        ts = two_state()
        with pytest.raises(InputError):
            orientation_from_positive(ts, {"t", "t~"})
        ori = orientation_from_positive(ts, {"t"})
        assert isinstance(ori, Orientation)


class TestPositiveContentFamily:
    def test_two_state(self):
        ts = two_state()
        rep = positive_content_family(ts, orient_from_state(ts, "S"))
        assert set(rep.family.sets) == {frozenset(), frozenset({"t"})}

    def test_hexagon_matches_order_encodings_after_renaming(self):
        ts, fam = linear_medium(3)
        rep = positive_content_family(ts, orient_from_state(ts, "321"))
        renamed = {
            frozenset(pair_name(t[2], t[4]) for t in s) for s in rep.family.sets
        }
        assert renamed == set(fam.sets)

    def test_base_state_maps_to_empty_set(self, corpus):
        for name, ts in corpus:
            base = ts.states[0]
            rep = positive_content_family(ts, orient_from_state(ts, base))
            assert rep.alpha[base] == frozenset(), name

    def test_adjacent_positive_contents_differ_by_one(self, corpus):
        for name, ts in corpus:
            rep = positive_content_family(ts, orient_from_state(ts, ts.states[0]))
            for t in ts.tokens:
                for (s, v) in ts.moves(t):
                    assert distance(rep.alpha[s], rep.alpha[v]) == 1, name

    def test_normalization_conditions(self, corpus):
        for name, ts in corpus:
            rep = positive_content_family(ts, orient_from_state(ts, ts.states[0]))
            assert not frozenset.intersection(*rep.family.sets), name
            assert frozenset.union(*rep.family.sets) == frozenset(rep.family.ground), name

    def test_round_trip_is_isometric_to_the_source_family(self):
        # for a family medium oriented from its minimal member, the positive
        # contents renamed through the ground-element correspondence form a
        # family isometric to the source; extend_isometry certifies it
        from tokenmedia.cubes import extend_isometry
        from tokenmedia.families import normalize, set_name
        from conftest import random_wg_family

        rng = random.Random(41)
        trials = 0
        while trials < 20:
            fam = normalize(random_wg_family(rng, "abcde", rng.randint(3, 10))).family
            if len(fam.sets) < 3 or not fam.ground:
                continue
            trials += 1
            ts = family_medium(fam)
            base_set = min(fam.sets, key=lambda s: (len(s), sorted(s)))
            base_state = set_name(base_set, fam.ground)
            rep = positive_content_family(ts, orient_from_state(ts, base_state))
            renamed = {
                set_name(s, fam.ground): frozenset(x.split(":", 1)[1] for x in rep.alpha[set_name(s, fam.ground)])
                for s in fam.sets
            }
            rep_family = SetFamily(fam.ground, tuple(renamed[set_name(s, fam.ground)] for s in fam.sets))
            alpha_iso = {renamed[set_name(s, fam.ground)]: s for s in fam.sets}
            iso = extend_isometry(rep_family, fam, alpha_iso)
            for s in fam.sets:
                assert iso.apply(renamed[set_name(s, fam.ground)]) == s
            if base_set == frozenset():
                assert rep_family.sets == fam.sets


class TestDecideMedium:
    def test_two_state_yes(self):
        d = decide_medium(two_state())
        assert d.is_medium
        assert set(d.family.sets) == {frozenset(), frozenset({"0"})}

    def test_reduction_to_endpoints_no_with_m2_witness(self):
        stranded = reduction(path3(), ["P", "R"])
        d = decide_medium(stranded)
        assert not d.is_medium
        assert d.witness["axiom"] == "M2"
        assert straight_message(stranded, d.witness["source"], d.witness["target"]) is None

    def test_hexagon_variant_is_a_medium(self):
        d = decide_medium(family_medium(hexagon_variant_family()))
        assert d.is_medium and len(d.alpha) == 6

    def test_partial_cube_graph_with_wrong_action_rejected(self):
        # both token pairs ride the same edge pair structure, but "lazy"
        # fixes a state whose coordinate reduction moves: take the 2-chain
        # and a second pair acting only on one edge
        ts = TokenSystem(
            ("A", "B", "C"),
            ("f1", "b1", "lazy", "lazy~"),
            {
                "f1": {"A": "B", "B": "B", "C": "C"},
                "b1": {"B": "A", "A": "A", "C": "C"},
                "lazy": {"B": "C", "A": "A", "C": "C"},
                "lazy~": {"C": "B", "A": "A", "B": "B"},
            },
            {"f1": "b1", "b1": "f1", "lazy": "lazy~", "lazy~": "lazy"},
        )
        # this one is fine: it is exactly the 3-chain medium
        assert decide_medium(ts).is_medium
        # now a genuinely broken action: one token hops across both edges
        broken = TokenSystem(
            ("A", "B", "C"),
            ("hop", "hop~", "f", "b"),
            {
                "hop": {"A": "B", "B": "C", "C": "C"},
                "hop~": {"C": "B", "B": "A", "A": "A"},
                "f": {"B": "C", "A": "A", "C": "C"},
                "b": {"C": "B", "A": "A", "B": "B"},
            },
            {"hop": "hop~", "hop~": "hop", "f": "b", "b": "f"},
        )
        d = decide_medium(broken)
        assert not d.is_medium
        # hop moves across two levels of its coordinate: "f, hop~, hop~, hop"
        # goes round the chain and back to B without being vacuous
        assert d.witness == {"axiom": "M3", "kind": "ineffective-but-not-vacuous", "state": "B",
                             "message": ["f", "hop~", "hop~", "hop"]}

    def test_fixed_point_mismatch_rejected(self):
        # 4-cycle graph, but one token pair refuses to act on one of its edges
        fam = SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}])
        assert decide_medium(family_medium(fam)).is_medium
        d = decide_medium(lazy_four_cycle())
        assert not d.is_medium
        # add:a does not move {b}, so only the long way round leads to {a,b}
        assert d.witness == {"axiom": "M2", "source": "{b}", "target": "{a,b}"}

    def test_no_pairing_is_m1(self):
        ts = TokenSystem(
            ("S", "T"),
            ("t", "u"),
            {"t": {"S": "T", "T": "T"}, "u": {"T": "S", "S": "S"}},
        )
        d = decide_medium(ts)
        assert not d.is_medium and d.witness["kind"] == "missing-reverse-pairing"

    def test_odd_cycle_system_fails_m3(self):
        fwd = {"A": "B", "B": "C", "C": "A"}
        bwd = {v: k for k, v in fwd.items()}
        ts = TokenSystem(
            ("A", "B", "C"),
            ("r", "r~"),
            {"r": fwd, "r~": bwd},
            {"r": "r~", "r~": "r"},
        )
        d = decide_medium(ts)
        assert not d.is_medium
        assert d.witness == {"axiom": "M3", "kind": "ineffective-but-not-vacuous", "state": "B",
                             "message": ["r", "r", "r"]}


def dense_verify_embedding(ts1, ts2, alpha, beta):
    """The embedding check entry by entry over states x tokens through the
    dense ``action`` tables, with reduced tokens matched by their rows: the
    oracle for ``verify_embedding``'s move-index route, on valid maps."""
    act1, act2 = dense_action(ts1), dense_action(ts2)
    for t in ts1.tokens:
        for s in ts1.states:
            if alpha[act1[t][s]] != act2[beta[t]][alpha[s]]:
                return EmbeddingReport(
                    False,
                    mismatch={"state": s, "token": t,
                              "source_result": act1[t][s],
                              "target_result": act2[beta[t]][alpha[s]]},
                )
    red = reduction(ts2, alpha.values())
    red_act = dense_action(red)
    by_action = {tuple(red_act[u][alpha[s]] for s in ts1.states): u for u in red.tokens}
    matched = [by_action.get(tuple(alpha[act1[t][s]] for s in ts1.states))
               for t in ts1.tokens]
    ok = None not in matched and set(matched) == set(red.tokens)
    return EmbeddingReport(True, reduction_isomorphic=ok)


@st.composite
def embedding_inputs(draw):
    """A sub-family's system into a well graded family's medium under the
    identity maps, which embed it unless a token moves a kept set out of
    the sub-family; a small system's tokens into it, which embeds with no
    reduction isomorphism unless all are kept; or two arbitrary small
    systems.  Then the maps are sometimes shuffled."""
    route = draw(st.integers(0, 2))
    if route == 0:
        fam = draw(wg_families())
        assume(len(fam.sets) >= 3)
        keep = draw(st.lists(st.sampled_from(fam.sets), min_size=2, unique=True))
        ts1, ts2 = family_medium(SetFamily(fam.ground, tuple(keep))), family_medium(fam)
    elif route == 1:
        ts2 = draw(small_systems())
        kept = draw(st.lists(st.sampled_from(ts2.tokens), min_size=1, unique=True))
        ts1 = TokenSystem(ts2.states, tuple(kept), moves={t: dict(ts2.moves(t)) for t in kept})
    if route < 2:
        alpha, beta = {s: s for s in ts1.states}, {t: t for t in ts1.tokens}
    else:
        ts1, ts2 = draw(small_systems()), draw(small_systems())
        assume(len(ts1.tokens) <= len(ts2.tokens))
        alpha = dict(zip(ts1.states, draw(st.permutations(ts2.states))))
        beta = dict(zip(ts1.tokens, ts2.tokens))
        assume(len(alpha) == len(ts1.states))
    if draw(st.booleans()):
        alpha = dict(zip(alpha, draw(st.permutations(list(alpha.values())))))
    if draw(st.booleans()):
        beta = dict(zip(ts1.tokens, draw(st.permutations(ts2.tokens))))
    return ts1, ts2, alpha, beta


class TestVerifyEmbedding:
    @settings(max_examples=300, deadline=None)
    @given(case=embedding_inputs())
    def test_matches_the_dense_check(self, case):
        ts1, ts2, alpha, beta = case
        assert verify_embedding(ts1, ts2, alpha, beta) == dense_verify_embedding(ts1, ts2, alpha, beta)

    def test_reads_no_dense_row(self, monkeypatch):
        def refuse(states, ms):
            raise AssertionError("a dense row was built")

        monkeypatch.setattr(tokens, "_dense_row", refuse)
        ts = linear_medium(5)[0]
        report = verify_embedding(ts, ts, {s: s for s in ts.states}, {t: t for t in ts.tokens})
        assert report.embedding and report.reduction_isomorphic

    def test_identity_embedding(self):
        ts = family_medium(hexagon_family())
        report = verify_embedding(ts, ts, {s: s for s in ts.states}, {t: t for t in ts.tokens})
        assert report.embedding and report.reduction_isomorphic

    def test_edge_into_hexagon(self):
        ring = family_medium(hexagon_family())
        pair = two_state()
        # embed S,T onto the edge {a} - {a,b}; the crossing token adds b
        alpha = {"S": "{a}", "T": "{a,b}"}
        beta = {"t": "add:b", "t~": "rem:b"}
        report = verify_embedding(pair, ring, alpha, beta)
        assert report.embedding
        assert report.reduction_isomorphic

    def test_swapped_tokens_fail(self):
        ring = family_medium(hexagon_family())
        pair = two_state()
        alpha = {"S": "{a}", "T": "{a,b}"}
        beta = {"t": "rem:b", "t~": "add:b"}
        report = verify_embedding(pair, ring, alpha, beta)
        assert not report.embedding
        assert report.mismatch is not None

    def test_unmatched_reduced_token_is_not_reduction_isomorphic(self):
        # a lone token without its reverse embeds into the two-state medium,
        # but the reduction keeps both of its tokens
        lone = TokenSystem(("S", "T"), ("t",), {"t": {"S": "T", "T": "T"}})
        report = verify_embedding(lone, two_state(), {"S": "S", "T": "T"}, {"t": "t"})
        assert report.embedding
        assert report.reduction_isomorphic is False

    def test_non_injective_rejected(self):
        ts = two_state()
        with pytest.raises(InputError):
            verify_embedding(ts, ts, {"S": "S", "T": "S"}, {"t": "t", "t~": "t~"})


class TestOracleAgreementSample:
    """Small spot-check of decide_medium against the bounded axiom checker.

    The exhaustive sweep lives in the acceptance suite; this keeps a quick
    guard in the unit run.
    """

    def test_sample_of_two_token_systems(self):
        states = ("A", "B", "C")
        images = list(itertools.product(states, repeat=3))
        count = 0
        for ia in images[::3]:
            a = dict(zip(states, ia))
            if all(a[s] == s for s in states):
                continue
            for ib in images[::4]:
                b = dict(zip(states, ib))
                if all(b[s] == s for s in states):
                    continue
                ts = TokenSystem(states, ("t", "u"), {"t": a, "u": b}, {"t": "u", "u": "t"})
                assert walks.passes(walks.bounded_report(ts, bound=8)) == decide_medium(ts).is_medium
                count += 1
        assert count > 50
