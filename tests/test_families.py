import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia import families
from tokenmedia.errors import InputError, ParseError
from tokenmedia.families import (
    SetFamily,
    between,
    distance,
    family_medium,
    is_complete,
    is_well_graded,
    line_segment,
    normalize,
    set_name,
    translate,
    well_graded_witness,
)
from tokenmedia.linorders import LinearOrder, encode
from tokenmedia.represent import decide_medium

from conftest import hexagon_family, lines_at_most, power_set_family, staircase_family, wg_families

finite_set = st.frozensets(st.sampled_from("abcdef"))


class TestDistanceAndBetweenness:
    def test_symmetric_difference(self):
        assert distance(frozenset("ab"), frozenset("bc")) == 2

    def test_zero_on_equal(self):
        assert distance(frozenset("ab"), frozenset("ab")) == 0

    def test_linear_order_encodings(self):
        base = LinearOrder(("1", "2", "3"))
        one_swap = encode(LinearOrder(("2", "1", "3")), base)
        assert distance(one_swap, encode(base, base)) == 1

    def test_between_chain(self):
        assert between(frozenset("a"), frozenset("ab"), frozenset("abc"))

    def test_between_reflexive_end(self):
        p, q = frozenset("a"), frozenset("abc")
        assert between(p, p, q)

    def test_not_between(self):
        assert not between(frozenset(), frozenset("ab"), frozenset("a"))

    @given(finite_set, finite_set, finite_set)
    def test_between_matches_metric(self, p, r, q):
        assert between(p, r, q) == (distance(p, r) + distance(r, q) == distance(p, q))

    @given(finite_set, finite_set, finite_set)
    def test_triangle_decomposition(self, s1, s2, s3):
        # |S1 ^ S2| + |S2 ^ S3| = |S1 ^ S3| + 2(|U2| + |V2|) where U2/V2 are the
        # private and enclosed parts of the middle set
        u2 = s2 - (s1 | s3)
        v2 = (s1 & s3) - s2
        lhs = distance(s1, s2) + distance(s2, s3)
        assert lhs == distance(s1, s3) + 2 * (len(u2) + len(v2))


class TestWellGraded:
    def test_chain(self):
        fam = SetFamily.of("ab", [set(), {"a"}, {"a", "b"}])
        assert is_well_graded(fam)

    def test_gap_of_two_with_witness(self):
        fam = SetFamily.of("ab", [set(), {"a", "b"}])
        witness = well_graded_witness(fam)
        assert witness is not None
        assert set(witness) == {frozenset(), frozenset("ab")}

    def test_staircase(self):
        assert is_well_graded(staircase_family())

    def test_brute_force_oracle_agrees(self):
        # oracle: a family is well graded iff every pair admits a unit-step
        # geodesic, found by breadth-first search inside the family
        import itertools
        from collections import deque

        def oracle(fam):
            members = set(fam.sets)
            for p, q in itertools.permutations(fam.sets, 2):
                target = distance(p, q)
                dist = {p: 0}
                queue = deque([p])
                while queue:
                    cur = queue.popleft()
                    for other in members:
                        if other not in dist and distance(cur, other) == 1:
                            if distance(other, q) == target - dist[cur] - 1:
                                dist[other] = dist[cur] + 1
                                queue.append(other)
                if q not in dist:
                    return False
            return True

        import random

        rng = random.Random(99)
        ground = tuple("abcd")
        for _ in range(120):
            count = rng.randint(2, 7)
            seen = set()
            while len(seen) < count:
                seen.add(frozenset(x for x in ground if rng.random() < 0.5))
            fam = SetFamily(ground, tuple(seen))
            assert is_well_graded(fam) == oracle(fam)


class TestLineSegment:
    def test_chain_segment(self):
        fam = SetFamily.of("ab", [set(), {"a"}, {"a", "b"}])
        seg = line_segment(fam, frozenset(), frozenset("ab"))
        assert seg == (frozenset(), frozenset("a"), frozenset("ab"))

    def test_degenerate(self):
        fam = SetFamily.of("a", [set(), {"a"}])
        assert line_segment(fam, frozenset(), frozenset()) == (frozenset(),)

    def test_membership_required(self):
        fam = SetFamily.of("ab", [set(), {"a"}])
        with pytest.raises(InputError):
            line_segment(fam, frozenset(), frozenset("b"))

    def test_hexagon_antipodal_segment(self):
        base = LinearOrder(("1", "2", "3"))
        orders = ["123", "213", "231", "321", "312", "132"]
        fam = SetFamily(
            ("1<2", "1<3", "2<3"),
            tuple(encode(LinearOrder(tuple(o)), base) for o in orders),
        )
        empty = encode(LinearOrder(("3", "2", "1")), base)
        full = encode(base, base)
        seg = line_segment(fam, empty, full)
        assert seg is not None and len(seg) == 4
        assert all(s in set(fam.sets) for s in seg)
        assert all(distance(a, b) == 1 for a, b in zip(seg, seg[1:]))

    def test_none_when_no_segment(self):
        fam = SetFamily.of("ab", [set(), {"a", "b"}])
        assert line_segment(fam, frozenset(), frozenset("ab")) is None

    def test_chain_longer_than_the_recursion_limit(self):
        ground = tuple(f"e{i}" for i in range(1500))
        fam = SetFamily(ground, tuple(frozenset(ground[:k]) for k in range(1501)))
        with segment_lines_at_most(10 * len(fam.sets)):
            assert line_segment(fam, frozenset(), frozenset(ground)) == fam.sets

    @pytest.mark.parametrize("k", [8, 12])
    def test_each_dead_end_is_entered_once(self, k):
        # every path through the power set reaches the full set, two steps
        # short of q; the recursive search tries all k! of them
        fam, q = dead_end_family(k)
        with segment_lines_at_most(4 * len(fam.sets) * len(fam.ground)):
            assert line_segment(fam, frozenset(), q) is None

    def test_dead_ends_match_the_recursive_search(self):
        fam, q = dead_end_family(5)
        for p in fam.sets:
            for target in (q, frozenset("ce"), frozenset("abcde")):
                assert line_segment(fam, p, target) == recursive_segment(fam, p, target)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_the_recursive_search(self, data):
        if data.draw(st.booleans()):
            fam = data.draw(wg_families())
        else:
            ground = data.draw(st.permutations("abcdef"[:data.draw(st.integers(1, 6))]))
            sets = data.draw(st.lists(st.frozensets(st.sampled_from(ground)), min_size=1, max_size=30,
                                      unique=True))
            fam = SetFamily(tuple(ground), tuple(sets))
        p, q = data.draw(st.sampled_from(fam.sets)), data.draw(st.sampled_from(fam.sets))
        assert line_segment(fam, p, q) == recursive_segment(fam, p, q)


def recursive_segment(fam, p, q):
    """The recursive search that ``line_segment`` replaced, kept as its
    oracle: it tries the steps toward q in ground order and retries dead ends."""
    p = frozenset(p)
    q = frozenset(q)
    members = set(fam.sets)
    if p not in members or q not in members:
        raise InputError("segment endpoints must belong to the family")
    if p == q:
        return (p,)
    path = [p]

    def walk(cur):
        if cur == q:
            return True
        gap = cur ^ q
        for x in fam.ground:
            if x not in gap:
                continue
            nxt = cur ^ {x}
            if nxt in members:
                path.append(nxt)
                if walk(nxt):
                    return True
                path.pop()
        return False

    return tuple(path) if walk(p) else None


def dead_end_family(k):
    """The power set of k elements and one member two steps past its full
    set, which no monotone path reaches; with that member."""
    ground = "abcdefghijkl"[:k]
    q = frozenset(ground + "yz")
    return SetFamily(tuple(ground + "yz"), power_set_family(ground).sets + (q,)), q


def segment_lines_at_most(bound):
    """Fail once ``line_segment`` and the functions nested in it have run
    more than ``bound`` lines in all."""
    codes, todo = set(), [families.line_segment.__code__]
    while todo:
        codes.add(code := todo.pop())
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines_at_most(codes, bound, "line_segment")


class TestFamilyMedium:
    def test_two_state(self):
        ts = family_medium(SetFamily.of("a", [set(), {"a"}]))
        assert len(ts.states) == 2 and len(ts.tokens) == 2

    def test_hexagon_is_a_six_cycle_medium(self):
        ts = family_medium(hexagon_family())
        assert len(ts.states) == 6
        assert decide_medium(ts).is_medium

    def test_gap_family_has_no_tokens(self):
        ts = family_medium(SetFamily.of("ab", [set(), {"a", "b"}]))
        assert ts.tokens == ()
        assert not decide_medium(ts).is_medium

    def test_token_pairs_match_effective_elements(self, corpus):
        # tokens exist exactly for elements in the union minus the intersection
        import random

        from conftest import random_wg_family

        rng = random.Random(5)
        for _ in range(25):
            fam = random_wg_family(rng, "abcde", 7)
            if len(fam.sets) < 2:
                continue
            ts = family_medium(fam)
            effective = frozenset.union(*fam.sets) - frozenset.intersection(*fam.sets)
            got = {t.split(":", 1)[1] for t in ts.tokens}
            assert got == set(effective)


class TestCompleteness:
    def test_full_power_set(self):
        assert is_complete(power_set_family("ab"))

    def test_hexagon_not_complete(self):
        assert not is_complete(hexagon_family())

    def test_staircase_not_complete(self):
        assert not is_complete(staircase_family())

    def test_complete_iff_power_set_exhaustive(self):
        # |X| = 3: every family of at least two of the 8 subsets, against the toggle loop
        import itertools

        subsets = [frozenset(s) for r in range(4) for s in itertools.combinations("abc", r)]
        for mask in range(1, 1 << 8):
            chosen = tuple(subsets[i] for i in range(8) if mask >> i & 1)
            if len(chosen) < 2:
                continue
            fam = SetFamily(("a", "b", "c"), chosen)
            assert is_complete(fam) == toggle_closed(fam)

    def test_matches_the_toggle_loop_on_random_families(self):
        # grounds of 0-5 elements; members drawn from the cube of a part of the ground,
        # often all of it, so that unused elements, common elements and whole cubes occur
        import itertools

        rng = random.Random(2005)
        complete = 0
        for _ in range(3000):
            ground = tuple("abcde"[:rng.randint(0, 5)])
            used = [x for x in ground if rng.random() < 0.8]
            cube = [frozenset(c) for r in range(len(used) + 1) for c in itertools.combinations(used, r)]
            sets = cube if rng.random() < 0.4 else rng.sample(cube, rng.randint(1, len(cube)))
            if rng.random() < 0.3 and len(sets) > 1:
                sets = sets[1:]
            rest = [x for x in ground if x not in used]
            if rest and rng.random() < 0.3:
                sets = [s | {rest[0]} for s in sets]  # an element every member holds
            fam = SetFamily(ground, tuple(sets))
            complete += toggle_closed(fam)
            assert is_complete(fam) == toggle_closed(fam), fam
        assert complete > 300


def toggle_closed(fam: SetFamily) -> bool:
    """The oracle: every single-element toggle of every member stays in the family."""
    members = set(fam.sets)
    for s in fam.sets:
        for x in fam.ground:
            if x in s:
                if s - {x} not in members:
                    return False
            elif s | {x} not in members:
                return False
    return True


class TestTranslate:
    def test_self_complementary(self):
        fam = hexagon_family()
        image = translate(fam, "abc")
        assert set(image.sets) == set(fam.sets)

    def test_identity(self):
        fam = staircase_family()
        assert translate(fam, frozenset()).sets == fam.sets

    def test_singleton(self):
        fam = SetFamily.of("a", [set(), {"a"}])
        image = translate(fam, {"a"})
        assert set(image.sets) == set(fam.sets)

    @given(st.frozensets(st.sampled_from("abcde")))
    @settings(max_examples=40)
    def test_isometric_involution(self, shift):
        fam = staircase_family()
        once = translate(fam, shift)
        for p, q in zip(fam.sets, once.sets):
            assert distance(p, q) == len(shift)
        for i in range(len(fam.sets)):
            for j in range(len(fam.sets)):
                assert distance(once.sets[i], once.sets[j]) == distance(fam.sets[i], fam.sets[j])
        assert translate(once, shift).sets == fam.sets


class TestNormalize:
    def test_reports_provenance(self):
        fam = SetFamily.of("abcz", [{"z", "a"}, {"z", "b"}, {"z", "a", "b"}])
        result = normalize(fam)
        assert result.removed_common == ("z",)
        assert result.removed_unused == ("c",)
        assert result.family.ground == ("a", "b")
        assert set(result.family.sets) == {frozenset("a"), frozenset("b"), frozenset("ab")}

    def test_already_normal(self):
        fam = hexagon_family()
        result = normalize(fam)
        assert result.family == fam
        assert result.removed_common == () and result.removed_unused == ()


def test_set_name_uses_ground_order():
    assert set_name({"b", "a"}, ("a", "b", "c")) == "{a,b}"
    assert set_name(set(), "abc") == "{}"


def test_family_document_round_trips():
    fam = staircase_family()
    assert SetFamily.from_json_dict(fam.to_json_dict()) == fam


@pytest.mark.parametrize("doc", [
    {"ground": "ab", "sets": [[], ["a", "b"]]},
    {"ground": ["a", "b"], "sets": [[], "ab"]},
    {"ground": ["a", "b"], "sets": "ab"},
])
def test_strings_are_no_lists_in_a_family_document(doc):
    with pytest.raises(ParseError, match="must be a list"):
        SetFamily.from_json_dict(doc)


def zip_bit_columns(lab, width):
    """The former ``_bit_columns``: the rows zipped into columns, one join per column."""
    everyone = (1 << len(lab)) - 1
    rows = [format(own, f"0{width}b") for own in reversed(lab)]
    holders = [int("".join(column), 2) for column in zip(*rows)][::-1]
    return [(everyone ^ members, members) for members in holders]


@pytest.mark.parametrize("size", [1, 3, 50, 720,  # and one block, one past it and two and a half
                                  families._BLOCK, families._BLOCK + 1, 5 * families._BLOCK // 2])
@pytest.mark.parametrize("width", [0, 1, 8, 21])
def test_bit_columns_match_the_zip_route(size, width):
    rng = random.Random(1000 * size + width)
    top = (1 << width) - 1
    label_sets = [[0] * size, [top] * size] + [[rng.getrandbits(width) for _ in range(size)]
                                               for _ in range(5)]
    for lab in label_sets:
        got = families._bit_columns(lab, width)
        assert len(got) == width
        if width:  # at width 0 the zip route reads each label as the digit "0"
            assert got == zip_bit_columns(lab, width)


@pytest.mark.parametrize("width", [0, 1, 8])
def test_bit_columns_of_no_labels(width):
    # the zip route gave no column at all; nothing reads a column of no positions
    assert families._bit_columns([], width) == [(0, 0)] * width
    assert zip_bit_columns([], width) == []
