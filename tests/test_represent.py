import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily, distance, family_medium, well_graded_witness
from tokenmedia.linorders import linear_medium, pair_name
from tokenmedia.represent import (
    ContentTable,
    Orientation,
    contents,
    decide_medium,
    orient_from_state,
    orientation_from_positive,
    positive_content_family,
    verify_embedding,
)
from tokenmedia.tokens import TokenSystem, check_axioms, reduction, straight_message

from conftest import hexagon_family, hexagon_variant_family, path3, two_state


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
    gained = {base: frozenset()}
    queue = deque([base])
    while queue:
        cur = queue.popleft()
        for t in ts.tokens:
            v = ts.action[t][cur]
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


def assert_transports(ts, rep):
    """s.t = v iff alpha(s).beta(t) = alpha(v), checked for every token and
    state, plus the normalization of the family: empty intersection, union
    equal to the ground."""
    alpha, family = rep.alpha, rep.family
    members = set(family.sets)
    for t in ts.tokens:
        x, pol = rep.beta[t]
        for s in ts.states:
            image = alpha[s]
            moved = image | {x} if pol == "add" else image - {x}
            expected = moved if moved != image and moved in members else image
            assert alpha[ts.action[t][s]] == expected, (t, s)
    assert not frozenset.intersection(*family.sets)
    assert frozenset().union(*family.sets) == frozenset(family.ground)


def lazy_four_cycle():
    """The 4-cycle family medium whose pair a refuses to act on one edge."""
    good = family_medium(SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}]))
    action = {t: dict(good.action[t]) for t in good.tokens}
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
        assert_transports(ts, positive_content_family(ts, orient_from_state(ts, base)))


@st.composite
def wg_families(draw):
    """Well graded families over at most five elements, grown by unit steps
    that keep the family well graded."""
    ground = "abcde"[:draw(st.integers(1, 5))]
    sets = [frozenset(x for x in ground if draw(st.booleans()))]
    for _ in range(draw(st.integers(1, 12))):
        cand = draw(st.sampled_from(sets)) ^ {draw(st.sampled_from(ground))}
        if cand not in sets and well_graded_witness(SetFamily(ground, (*sets, cand))) is None:
            sets.append(cand)
    return SetFamily(tuple(ground), tuple(sets))


def test_corpus_agrees_with_oracles(corpus):
    for _, ts in corpus:
        assert_agrees_with_oracles(ts)


@pytest.mark.parametrize("name", sorted(ORACLE_MEDIA))
def test_named_media_agree_with_oracles(name):
    assert_agrees_with_oracles(ORACLE_MEDIA[name]())


@settings(max_examples=150, deadline=None)
@given(wg_families())
def test_well_graded_family_media_agree_with_oracles(fam):
    assert_agrees_with_oracles(family_medium(fam))


def test_decision_is_computed_once():
    ts = family_medium(hexagon_family())
    decision = decide_medium(ts)
    assert decide_medium(ts) is decision
    positive_content_family(ts, orient_from_state(ts, ts.states[-1]))
    assert decide_medium(ts) is decision


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
        import random

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
        assert d.witness["kind"] == "action-mismatch"

    def test_fixed_point_mismatch_rejected(self):
        # 4-cycle graph, but one token pair refuses to act on one of its edges
        fam = SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}])
        assert decide_medium(family_medium(fam)).is_medium
        d = decide_medium(lazy_four_cycle())
        assert not d.is_medium
        assert d.witness["kind"] in ("action-mismatch", "not-partial-cube")

    def test_no_pairing_is_m1(self):
        ts = TokenSystem(
            ("S", "T"),
            ("t", "u"),
            {"t": {"S": "T", "T": "T"}, "u": {"T": "S", "S": "S"}},
        )
        d = decide_medium(ts)
        assert not d.is_medium and d.witness["kind"] == "missing-reverse-pairing"

    def test_odd_cycle_system_rejected_via_graph(self):
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
        assert d.witness["kind"] == "not-partial-cube"


class TestVerifyEmbedding:
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
                assert check_axioms(ts, bound=8).ok == decide_medium(ts).is_medium
                count += 1
        assert count > 50
