import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest

from tokenmedia.cubes import media_isomorphic, medium_graph
from tokenmedia.errors import CapError, InputError
from tokenmedia.families import family_medium, is_well_graded
from tokenmedia.linorders import (
    LinearOrder,
    apply_token,
    base_order,
    covers,
    encode,
    is_order_encoding,
    linear_medium,
    pair_name,
    token_name,
)
from tokenmedia.represent import decide_medium

from conftest import adjacency, bfs_distances, hexagon_family


class TestCovers:
    @pytest.mark.parametrize(
        "seq,x,y,expected",
        [
            ("123", "2", "1", True),
            ("123", "3", "1", False),
            ("213", "1", "2", True),
            ("321", "1", "2", True),
            ("321", "2", "1", False),
        ],
    )
    def test_examples(self, seq, x, y, expected):
        assert covers(LinearOrder(tuple(seq)), x, y) is expected

    def test_cover_matches_adjacency_oracle(self):
        # oracle: x covers y iff y is directly before x in the sequence
        for seq in itertools.permutations("1234"):
            order = LinearOrder(seq)
            for x, y in itertools.permutations(seq, 2):
                direct = any(seq[i] == y and seq[i + 1] == x for i in range(3))
                assert covers(order, x, y) == direct

    def test_unknown_elements(self):
        with pytest.raises(InputError):
            covers(LinearOrder(("1", "2")), "1", "9")


class TestApplyToken:
    def test_swap_at_cover(self):
        assert apply_token(LinearOrder(("1", "2", "3")), "2", "1").seq == ("2", "1", "3")

    def test_no_op_without_cover(self):
        order = LinearOrder(("1", "2", "3"))
        assert apply_token(order, "3", "1") is order

    def test_swap_then_unswap(self):
        order = LinearOrder(("1", "2", "3"))
        assert apply_token(apply_token(order, "2", "1"), "1", "2").seq == order.seq

    def test_result_is_always_a_linear_order(self):
        for seq in itertools.permutations("1234"):
            order = LinearOrder(seq)
            for x, y in itertools.permutations(seq, 2):
                out = apply_token(order, x, y)
                assert sorted(out.seq) == sorted(seq)
                changed = out.seq != order.seq
                assert changed == covers(order, x, y)


class TestEncode:
    def test_base_order_keeps_all_pairs(self):
        base = base_order(3)
        assert encode(base, base) == {"1<2", "1<3", "2<3"}

    def test_reversed_order_is_empty(self):
        assert encode(LinearOrder(("3", "2", "1")), base_order(3)) == frozenset()

    def test_312(self):
        assert encode(LinearOrder(("3", "1", "2")), base_order(3)) == {"1<2"}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_injective(self, n):
        base = base_order(n)
        images = {encode(LinearOrder(p), base) for p in itertools.permutations(base.seq)}
        import math

        assert len(images) == math.factorial(n)


class TestLinearMedium:
    def test_n3_shape(self):
        ts, fam = linear_medium(3)
        assert len(ts.states) == 6 and len(ts.tokens) == 6
        g = medium_graph(ts)
        assert len(g.edges) == 6

    def test_n2(self):
        ts, fam = linear_medium(2)
        assert len(ts.states) == 2 and len(ts.tokens) == 2

    def test_n4_counts_and_diameter(self):
        ts, fam = linear_medium(4)
        assert len(ts.states) == 24
        g = medium_graph(ts)
        assert len(g.edges) == 36
        adj = adjacency(g)
        diameter = max(max(bfs_distances(adj, v).values()) for v in g.vertices)
        assert diameter == 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_family_well_graded_and_medium(self, n):
        ts, fam = linear_medium(n)
        assert is_well_graded(fam)
        assert decide_medium(ts).is_medium

    def test_pullback_identity(self):
        # encode(apply_token(l, x, y)) equals the add/remove action on encode(l)
        for n in (2, 3, 4, 5):
            base = base_order(n)
            images = {
                encode(LinearOrder(p), base)
                for p in itertools.permutations(base.seq)
            }
            for p in itertools.permutations(base.seq):
                order = LinearOrder(p)
                code = encode(order, base)
                for (x, y) in base.pairs:
                    stepped = encode(apply_token(order, x, y), base)
                    target = code | {pair_name(x, y)}
                    expected = target if target != code and target in images else code
                    assert stepped == expected, (p, x, y)
                    stepped_back = encode(apply_token(order, y, x), base)
                    target = code - {pair_name(x, y)}
                    expected = target if target != code and target in images else code
                    assert stepped_back == expected, (p, y, x)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_family_sets_are_the_encodings(self, n):
        # oracle: encode, through the order objects, each state's permutation
        ts, fam = linear_medium(n)
        base = base_order(n)
        perms = list(itertools.permutations(base.seq))
        assert list(ts.states) == ["".join(p) for p in perms]
        assert fam.sets == tuple(encode(LinearOrder(p), base) for p in perms)

    def test_n3_isomorphic_to_its_encoding_family_medium(self):
        ts, fam = linear_medium(3)
        assert media_isomorphic(ts, family_medium(fam)) is not None

    def test_n3_isomorphic_to_hexagon_medium(self):
        ts, _ = linear_medium(3)
        assert media_isomorphic(ts, family_medium(hexagon_family())) is not None

    def test_token_ids_are_stable(self):
        assert token_name("2", "1") == "t:2<1"
        ts, _ = linear_medium(2)
        assert set(ts.tokens) == {"t:1<2", "t:2<1"}

    def test_range_checks(self):
        with pytest.raises(InputError):
            linear_medium(1)
        with pytest.raises(CapError):
            linear_medium(8)
        with pytest.raises(CapError):
            linear_medium(10)


class TestOrderEncodingPredicate:
    def test_full_base_set(self):
        assert is_order_encoding({"1<2", "1<3", "2<3"}, 3) is True

    def test_non_transitive_subset(self):
        # {1<2, 2<3} misses 1<3, so it is not itself a partial order
        assert is_order_encoding({"1<2", "2<3"}, 3) is False

    def test_complement_not_transitive(self):
        assert is_order_encoding({"1<3"}, 3) is False

    def test_outside_base_rejected(self):
        with pytest.raises(InputError):
            is_order_encoding({"2<1"}, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_enumeration(self, n):
        base = base_order(n)
        images = {
            encode(LinearOrder(p), base) for p in itertools.permutations(base.seq)
        }
        ground = sorted(pair_name(x, y) for (x, y) in base.pairs)
        for mask in range(1 << len(ground)):
            subset = frozenset(g for i, g in enumerate(ground) if mask >> i & 1)
            assert is_order_encoding(subset, n) == (subset in images), subset


def win_count_encoding(p, n):
    """The former route, kept as the oracle: every base pair is named and
    each item of p looked up among the names, then the wins are counted
    over every base pair."""
    base = base_order(n)
    legal = {pair_name(x, y): (x, y) for (x, y) in base.pairs}
    rel = set()
    for item in p:
        if item not in legal:
            raise InputError(f"{item!r} is not a pair of the base order")
        rel.add(legal[item])
    wins = Counter(x if (x, y) in rel else y for x, y in base.pairs)
    return len({wins[x] for x in base.seq}) == n


def random_item(rng, n):
    """A base-pair name, or now and then a name outside the base, a
    non-string or an unhashable item."""
    names = [str(i) for i in range(1, max(n, 2) + 1)]
    x, y = sorted(rng.sample(names, 2), key=int)
    roll = rng.random()
    if roll < 0.8:
        return pair_name(x, y)
    if roll < 0.9:
        return rng.choice([pair_name(y, x), pair_name(x, x), f"{x}<{y}<{x}", f"{x}<", f"<{y}", x, "",
                           f" {x}<{y}", f"{x}<{int(y) + n}", f"0<{y}", f"{x}<{y} ", f"{x}<<{y}"])
    if roll < 0.95:
        return rng.choice([3, None, 1.5, (x, y), b"1<2", frozenset({pair_name(x, y)})])
    return rng.choice([[x, y], {pair_name(x, y)}, {x: y}])


def random_encoding_input(rng):
    """(p, n): n from -1 to 9; p a list, with repeats, that is an order's
    encoding, one pair off one, or random items."""
    n = rng.randint(-1, 9)
    size = max(n, 2)
    roll = rng.random()
    if roll < 0.4:
        base = base_order(size)
        p = list(encode(LinearOrder(tuple(rng.sample(base.seq, size))), base))
        if roll < 0.2 and base.pairs:
            p.append(pair_name(*rng.choice(sorted(base.pairs))))  # maybe one pair off the order
        if rng.random() < 0.2:
            p.insert(rng.randint(0, len(p)), random_item(rng, size))
    else:
        p = [random_item(rng, size) for _ in range(rng.randint(0, 12))]
    p += rng.sample(p, rng.randint(0, min(3, len(p))))  # repeats
    rng.shuffle(p)
    return p, n


def outcome(route, p, n):
    try:
        return route(p, n)
    except (InputError, TypeError) as exc:
        return type(exc), str(exc)


class TestOrderEncodingOracle:
    def test_matches_the_win_count_over_every_base_pair(self):
        rng = random.Random(46)
        seen = Counter()
        for _ in range(20_000):
            p, n = random_encoding_input(rng)
            expected = outcome(win_count_encoding, p, n)
            assert outcome(is_order_encoding, p, n) == expected, (p, n)
            seen[expected if isinstance(expected, bool) else expected[0]] += 1
        assert min(seen[True], seen[False], seen[InputError], seen[TypeError]) >= 500, seen

    # the reversed base order, and 50 pairs k<k+2, each without k<k+1 and k+1<k+2
    @pytest.mark.parametrize("p,expected", [(set(), True),
                                            ({pair_name(str(k), str(k + 2)) for k in range(1, 200, 4)}, False)])
    def test_reads_only_its_own_pairs(self, p, expected):
        # the former route named all 18 million base pairs of n = 6,000
        n = 6000
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            assert is_order_encoding(p, n) is expected
            best = min(best, time.perf_counter() - start)
        tracemalloc.start()
        try:
            is_order_encoding(p, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(p) in (0, 50)
        assert best <= 0.2 and peak <= 5 * 2**20, (best, peak)
