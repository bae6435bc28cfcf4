"""``cubes.extend_isometry`` (read off the family's edges) and
``families.well_graded_witness`` (the bitset separation test) against the
routes they replaced, kept here as oracles: the extension through element
rank tables and the pairwise scan over all ordered pairs of members.  The
rank tables (``rank_table``, ``RankTable``) left the library once nothing
in it read them; they live on here, with their own tests."""

import random
from dataclasses import dataclass
from typing import Mapping
from unittest import mock

import pytest

from tokenmedia import cubes, families
from tokenmedia.cubes import CubeIsometry, extend_isometry
from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily, distance, translate, well_graded_witness
from tokenmedia.linorders import linear_medium

from conftest import hexagon_family, random_subsets, random_wg_family, staircase_family


def pairwise_witness(fam):
    """The first ordered pair (P, Q), in member order, from which no element
    of P ^ Q can be toggled without leaving the family, or None: the
    O(|F|^2 * |X|) scan on integer bitmasks."""
    bit = {x: 1 << i for i, x in enumerate(fam.ground)}
    masks = [sum(bit[x] for x in s) for s in fam.sets]
    present = set(masks)
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if i == j:
                continue
            d = mi ^ mj
            while d:
                b = d & -d
                if mi ^ b in present:
                    break
                d ^= b
            else:
                return fam.sets[i], fam.sets[j]
    return None


@dataclass(frozen=True)
class RankTable:
    """Minimal member-set cardinality per element, for families containing the empty set."""

    rank: Mapping[str, int]
    witness: Mapping[str, frozenset[str]]

    def strata(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {}
        for x, k in self.rank.items():
            out.setdefault(k, []).append(x)
        return {k: tuple(sorted(xs)) for k, xs in sorted(out.items())}


def rank_table(fam: SetFamily) -> RankTable:
    if frozenset() not in fam.sets:
        raise InputError("rank table needs the empty set in the family")
    if well_graded_witness(fam) is not None:
        raise InputError("rank table needs a well graded family")
    rank: dict[str, int] = {}
    witness: dict[str, frozenset] = {}
    for x in fam.ground:
        best = None
        for s in fam.sets:
            if x in s and (best is None or _set_key(s, fam.ground) < _set_key(best, fam.ground)):
                best = s
        if best is not None:
            rank[x] = len(best)
            witness[x] = best
    return RankTable(rank, witness)


def _set_key(s, ground):
    return (len(s), tuple(x in s for x in ground))


def rank_extension(f1, f2, alpha):
    """The extension through rank tables: translate both families so the
    first member of f1 and its image become the empty set, and match each
    element through its minimal-rank witness set; rank strata must map
    bijectively, and elements untouched by f1 take the least remaining
    targets.  Every check of the pairwise route is kept."""
    if tuple(f1.ground) != tuple(f2.ground):
        raise InputError("families must share one ground set")
    if pairwise_witness(f1) is not None or pairwise_witness(f2) is not None:
        raise InputError("both families must be well graded")
    if set(alpha) != set(f1.sets) or set(alpha.values()) != set(f2.sets):
        raise InputError("alpha must be a bijection between the two families")
    sets1 = f1.sets
    for i in range(len(sets1)):
        for j in range(i + 1, len(sets1)):
            if distance(alpha[sets1[i]], alpha[sets1[j]]) != distance(sets1[i], sets1[j]):
                raise InputError("alpha is not distance-preserving")
    b1 = f1.sets[0]
    b2 = alpha[b1]
    lam = {p ^ b1: alpha[p] ^ b2 for p in f1.sets}
    ranks1 = rank_table(translate(f1, b1))
    ranks2 = rank_table(translate(f2, b2))
    perm = {}
    for x, a in ranks1.witness.items():
        smaller = a - {x}
        assert smaller in lam, "minimal witness chain broken"
        diff = lam[a] - lam[smaller]
        assert len(diff) == 1 and lam[smaller] <= lam[a], "a unit extension maps to no unit extension"
        perm[x] = next(iter(diff))
    strata1, strata2 = ranks1.strata(), ranks2.strata()
    assert sorted(strata1) == sorted(strata2), "rank strata disagree"
    for k, xs in strata1.items():
        assert tuple(sorted(perm[x] for x in xs)) == strata2[k], f"stratum {k} maps to another"
    untouched = [x for x in f1.ground if x not in perm]
    free = [y for y in f1.ground if y not in set(perm.values())]
    perm.update(zip(sorted(untouched), sorted(free)))
    inv_perm = {v: k for k, v in perm.items()}
    iso = CubeIsometry(tuple(f1.ground), b1 ^ frozenset(inv_perm[y] for y in b2), perm)
    assert all(iso.apply(p) == alpha[p] for p in f1.sets), "alpha not reproduced"
    return iso


class TestRankTable:
    def test_staircase(self):
        table = rank_table(staircase_family())
        assert table.rank == {"a": 1, "b": 1, "c": 3}
        assert table.strata() == {1: ("a", "b"), 3: ("c",)}

    def test_singleton(self):
        table = rank_table(SetFamily.of("a", [set(), {"a"}]))
        assert table.rank == {"a": 1}

    def test_chain(self):
        fam = SetFamily.of("abc", [set(), {"a"}, {"a", "b"}, {"a", "b", "c"}])
        table = rank_table(fam)
        assert table.rank == {"a": 1, "b": 2, "c": 3}
        assert table.witness["b"] == frozenset("ab")

    def test_needs_empty_set(self):
        with pytest.raises(InputError):
            rank_table(hexagon_family())


def outcome(route, f1, f2, alpha):
    try:
        return route(f1, f2, alpha)
    except InputError as exc:
        return InputError, str(exc)


def isometric_pair(rng, fam):
    """fam, its image under a random cube isometry with the members shuffled, and alpha."""
    ground = fam.ground
    shift = frozenset(x for x in ground if rng.random() < 0.5)
    sigma = CubeIsometry(ground, shift, dict(zip(ground, rng.sample(ground, len(ground)))))
    alpha = {s: sigma.apply(s) for s in fam.sets}
    images = list(alpha.values())
    rng.shuffle(images)
    return fam, SetFamily(fam.ground, tuple(images)), alpha


def trial_families(rng):
    for _ in range(600):
        size = rng.randint(1, 6)
        yield random_wg_family(rng, "abcdef"[:size], rng.randint(1, min(12, 2 ** size)))
    for n in (4, 5):
        _, fam = linear_medium(n)
        yield fam
    yield staircase_family()


def test_edge_route_matches_the_rank_tables_on_random_isometries():
    rng = random.Random(2101)
    for fam in trial_families(rng):
        f1, f2, alpha = isometric_pair(rng, fam)
        iso = extend_isometry(f1, f2, alpha)
        assert iso == rank_extension(f1, f2, alpha)
        assert all(iso.apply(s) == alpha[s] for s in f1.sets)


def test_broken_alpha_is_rejected_by_both_routes():
    rng = random.Random(2102)
    rejected = 0
    for fam in trial_families(rng):
        if len(fam.sets) < 2:
            continue
        f1, f2, alpha = isometric_pair(rng, fam)
        p, q = rng.sample(f1.sets, 2)
        swapped = {**alpha, p: alpha[q], q: alpha[p]}
        # a swap can be another isometry (a symmetry of the family); then
        # both routes must find the same one
        got = outcome(extend_isometry, f1, f2, swapped)
        assert got == outcome(rank_extension, f1, f2, swapped)
        preserving = all(distance(swapped[a], swapped[b]) == distance(a, b) for a in f1.sets for b in f1.sets)
        assert isinstance(got, CubeIsometry) == preserving
        rejected += not preserving
        merged = {**alpha, p: alpha[q]}
        image = SetFamily(f1.ground, tuple(dict.fromkeys(merged.values())))
        for target in (f2, image):
            got = outcome(extend_isometry, f1, target, merged)
            assert got[0] is InputError
            assert outcome(rank_extension, f1, target, merged)[0] is InputError
    assert rejected > 250


def test_edge_route_names_the_distance_on_every_broken_alpha():
    chain = SetFamily.of("abc", [set(), {"a"}, {"a", "b"}, {"a", "b", "c"}])
    square = SetFamily.of("abc", [set(), {"a"}, {"a", "b"}, {"b"}])
    cases = [
        # an edge whose images differ in two elements
        (chain, chain, {**{s: s for s in chain.sets},
                        frozenset("a"): frozenset("ab"), frozenset("ab"): frozenset("a")}),
        # one image per edge and one per element, but a -> a and c -> a
        (chain, square, dict(zip(chain.sets, square.sets))),
    ]
    for f1, f2, alpha in cases:
        with pytest.raises(InputError, match="alpha is not distance-preserving"):
            extend_isometry(f1, f2, alpha)
        with pytest.raises(InputError, match="alpha is not distance-preserving"):
            rank_extension(f1, f2, alpha)


def test_extension_reads_no_rank_table_and_no_distance():
    rng = random.Random(2103)
    f1, f2, alpha = isometric_pair(rng, random_wg_family(rng, "abcde", 10))
    assert not hasattr(cubes, "rank_table")  # the rank tables live in this module alone
    with mock.patch.object(families, "distance", side_effect=AssertionError("distance ran")):
        iso = extend_isometry(f1, f2, alpha)
    assert iso == rank_extension(f1, f2, alpha)


def test_bitset_witness_matches_the_pairwise_scan():
    rng = random.Random(2104)
    fams = [hexagon_family(), staircase_family(), linear_medium(4)[1], linear_medium(5)[1]]
    for _ in range(400):
        ground = "abcdef"[:rng.randint(1, 6)] + "xy"[:rng.randint(0, 2)]
        fams.append(random_subsets(rng, ground, rng.randint(1, min(12, 2 ** len(ground)))))
        wg = random_wg_family(rng, ground, rng.randint(1, 10))
        fams.append(wg)
        extra = frozenset(x for x in ground if rng.random() < 0.5)
        if extra not in wg.sets:  # one set more: often no longer well graded
            sets = list(wg.sets)
            sets.insert(rng.randint(0, len(sets)), extra)
            fams.append(SetFamily(wg.ground, tuple(sets)))
    broken = 0
    for fam in fams:
        found = well_graded_witness(fam)
        assert found == pairwise_witness(fam), fam
        broken += found is not None
    assert 200 < broken < len(fams) - 200
