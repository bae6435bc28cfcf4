import itertools
import random
import sys
from collections import defaultdict, deque
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenmedia.arrangements import (
    MOSAIC_KINDS,
    MOSAIC_MAX_RADIUS,
    Arrangement,
    Line,
    Region,
    arrangement_medium,
    enumerate_regions,
    mosaic_window,
    negative_token,
    positive_token,
    region_adjacency,
    region_family,
    _facets,
    _generic_point,
    _ground,
)
from tokenmedia.cubes import LabeledGraph, is_partial_cube
from tokenmedia.errors import CapError, InputError, ParseError
from tokenmedia.families import distance, is_well_graded, set_name
from tokenmedia.represent import decide_medium

from conftest import adjacency, bfs_distances


def _mask(signs) -> int:
    """Bit k set iff the sign on line k is positive."""
    return sum(1 << k for k, s in enumerate(signs) if s > 0)


def _signs(mask: int, n: int) -> tuple[int, ...]:
    return tuple(1 if mask >> k & 1 else -1 for k in range(n))


def crossing_pair():
    return Arrangement((Line.of(1, 0, 0), Line.of(0, 1, 0)))


def concurrent_triple():
    return Arrangement((Line.of(0, 1, 0), Line.of(1, -1, 0), Line.of(1, 1, 0)))


# --- the Fourier-Motzkin oracle ----------------------------------------------


def _solve_interval(bounds):
    """Feasible point of a system of strict 1-d constraints a*t + c > 0, or None."""
    lo = hi = None
    for (a, c) in bounds:
        if a == 0:
            if c <= 0:
                return None
        elif a > 0:
            t = -c / a
            if lo is None or t > lo:
                lo = t
        else:
            t = -c / a
            if hi is None or t < hi:
                hi = t
    if lo is not None and hi is not None:
        if lo >= hi:
            return None
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    if hi is not None:
        return hi - 1
    return Fraction(0)


def _feasible_point(constraints):
    """Interior point of the strict system [a*x + b*y + c > 0, ...], or None.

    Fourier-Motzkin elimination of y: with strict inequalities the projection
    is exact, so any x strictly inside the projected interval lifts to a
    feasible y.
    """
    lowers = []  # y > s*x + m
    uppers = []  # y < s*x + m
    xbounds = []
    for (a, b, c) in constraints:
        if b > 0:
            lowers.append((-a / b, -c / b))
        elif b < 0:
            uppers.append((-a / b, -c / b))
        else:
            xbounds.append((a, c))
    for (s1, m1) in lowers:
        for (s2, m2) in uppers:
            # s1*x + m1 < s2*x + m2
            xbounds.append((s2 - s1, m2 - m1))
    x = _solve_interval(xbounds)
    if x is None:
        return None
    ybounds = [(Fraction(1), -(s * x + m)) for (s, m) in lowers]
    ybounds += [(Fraction(-1), s * x + m) for (s, m) in uppers]
    y = _solve_interval(ybounds)
    if y is None:  # cannot happen: the projection is exact
        return None
    return (x, y)


def _region_constraints(arr, signs):
    return [(s * l.a, s * l.b, s * l.c) for l, s in zip(arr.lines, signs)]


def fm_witnesses(arr, regions):
    """Oracle: the same cells in the same order, each but the seed cell with
    the Fourier-Motzkin point of its own sign vector as its witness."""
    return regions[:1] + tuple(Region(r.signs, _feasible_point(_region_constraints(arr, r.signs)))
                               for r in regions[1:])


def brute_force_regions(arr):
    """Oracle: test all 2^n sign vectors by exact feasibility."""
    count = 0
    for signs in itertools.product((1, -1), repeat=len(arr.lines)):
        if _feasible_point(_region_constraints(arr, signs)) is not None:
            count += 1
    return count


def fm_regions(arr):
    """Oracle: flood fill over single-sign flips from the generic seed point,
    validating each flip by Fourier-Motzkin feasibility."""
    seed = _generic_point(arr)
    signs0 = tuple(1 if l.evaluate(*seed) > 0 else -1 for l in arr.lines)
    first = Region(signs0, seed)
    found = {signs0: first}
    order = [first]
    queue = deque([signs0])
    while queue:
        signs = queue.popleft()
        for k in range(len(arr.lines)):
            flipped = signs[:k] + (-signs[k],) + signs[k + 1:]
            if flipped in found:
                continue
            point = _feasible_point(_region_constraints(arr, flipped))
            if point is None:
                continue
            region = Region(flipped, point)
            found[flipped] = region
            order.append(region)
            queue.append(flipped)
    return tuple(order)


def _facet_bounds(arr, signs, k):
    """The other strict inequalities as 1-d constraints a*t + c > 0 on line k,
    parametrized by t = x when line k is not vertical."""
    line = arr.lines[k]
    if line.b != 0:
        direction = (Fraction(1), -line.a / line.b)
        origin = (Fraction(0), -line.c / line.b)
    else:
        direction = (Fraction(0), Fraction(1))
        origin = (-line.c / line.a, Fraction(0))
    bounds = []
    for j, (l, s) in enumerate(zip(arr.lines, signs)):
        if j == k:
            continue
        slope = l.a * direction[0] + l.b * direction[1]
        offset = l.a * origin[0] + l.b * origin[1] + l.c
        bounds.append((s * slope, s * offset))
    return bounds


def _facet_shared(arr, signs, k):
    """Oracle: do the other strict inequalities cut a nonempty open piece out
    of line k?  Parametrizes line k and solves the 1-d system exactly."""
    return _solve_interval(_facet_bounds(arr, signs, k)) is not None


def _facet_x_range(arr, signs, k):
    """Oracle: min and max x over the closure of the piece of line k inside
    the other strict inequalities, None where it is unbounded."""
    line = arr.lines[k]
    if line.b == 0:
        return (-line.c / line.a, -line.c / line.a)
    bounds = _facet_bounds(arr, signs, k)
    return (max((-c / a for a, c in bounds if a > 0), default=None),
            min((-c / a for a, c in bounds if a < 0), default=None))


def _single_flip(si, sj):
    k = None
    for idx, (a, b) in enumerate(zip(si, sj)):
        if a != b:
            if k is not None:
                return None
            k = idx
    return k


def pair_scan_adjacency(arr, regions):
    """Oracle: test every pair of regions at sign distance one for a shared
    facet on the separating line."""
    regions = tuple(regions)
    names = [r.name for r in regions]
    edges = []
    labels = {}
    for i in range(len(regions)):
        si = regions[i].signs
        for j in range(i + 1, len(regions)):
            sj = regions[j].signs
            k = _single_flip(si, sj)
            if k is None or not _facet_shared(arr, si, k):
                continue
            u, v = names[i], names[j]
            e = (u, v) if u < v else (v, u)
            enter_pos = positive_token(k)
            enter_neg = negative_token(k)
            first_positive = (sj[k] > 0) == (e == (u, v))
            labels[e] = (enter_pos, enter_neg) if first_positive else (enter_neg, enter_pos)
            edges.append(e)
    return LabeledGraph(tuple(names), tuple(edges), edge_labels=labels)


# --- the Fraction sweep oracle -----------------------------------------------


def stored_fraction_facets(arr) -> list[tuple[int, int, Fraction | None, Fraction | None]]:
    """The stored sweep's facets (k, mask, lo, hi) with each x-rank mapped back
    through the stored table of x-values to its exact Fraction, None where
    the facet is unbounded."""
    facets = _facets(arr)
    xs = [None if x is None else Fraction(*x) for x in arr._xs]
    return [(k, mask, xs[lo], xs[hi]) for k, mask, lo, hi in facets]


def fraction_facets(arr) -> list[tuple[int, int, Fraction | None, Fraction | None]]:
    """Oracle: the per-line Fraction sweep that the integer sweep replaced,
    verbatim but for its memo on the arrangement.  Every facet as (k, mask,
    lo, hi): an open segment of line k between consecutive crossings, with
    the cells of sign masks ``mask`` and ``mask | 1 << k`` on its two sides
    and lo <= x <= hi on its closure (None if unbounded).  Line k is walked
    along (-b, a) from beyond its first crossing, flipping at each exact
    crossing parameter the signs of the lines that meet it there; facets
    come out in ascending k.  Each crossing is computed twice, once from
    each of its lines."""
    facets = []
    for k, (a, b, c) in enumerate((l.a, l.b, l.c) for l in arr.lines):
        ox, oy = (Fraction(0), -c / b) if b else (-c / a, Fraction(0))  # a point of line k
        side = 0  # lines with the far negative end of line k on their positive side
        crossings: dict[Fraction, int] = defaultdict(int)
        for j, l in enumerate(arr.lines):
            if j == k:
                continue
            slope = l.b * a - l.a * b
            offset = l.evaluate(ox, oy)
            side |= (offset > 0 if slope == 0 else slope < 0) << j
            if slope:
                crossings[-offset / slope] |= 1 << j
        ts = sorted(crossings)
        # x = ox - b*t along line k (falling if b > 0): unbounded both ways unless b == 0
        end = None if b else ox
        xs = [end, *(ox - b * t for t in ts), end]
        lows, highs = (xs[1:], xs) if b > 0 else (xs, xs[1:])
        facets.append((k, side, lows[0], highs[0]))
        for i, t in enumerate(ts, 1):
            side ^= crossings[t]
            facets.append((k, side, lows[i], highs[i]))
    return facets


def fraction_route_regions(arr):
    """Oracle: ``enumerate_regions`` run over the Fraction sweep's facets, on
    a fresh copy of the arrangement holding them as its stored sweep: their
    order, masks and x-ranges, each end turned into its rank in the fresh
    copy's table of x-values (a KeyError if the table lacks it)."""
    fresh = Arrangement(arr.lines)
    _facets(fresh)  # stores the table of x-values
    xs = fresh._xs
    rank, top = {Fraction(*x): i for i, x in enumerate(xs[1:-1], 1)}, len(xs) - 1
    object.__setattr__(fresh, "_facets", [
        (k, mask, 0 if lo is None else rank[lo], top if hi is None else rank[hi])
        for k, mask, lo, hi in fraction_facets(fresh)])
    return enumerate_regions(fresh)


def _inside(lo, hi) -> Fraction:
    """The Fourier-Motzkin choice of a point of the open interval (lo, hi),
    where None is an unbounded end: the midpoint, lo + 1, hi - 1 or 0."""
    if lo is None:
        return Fraction(0) if hi is None else hi - 1
    return lo + 1 if hi is None else (lo + hi) / 2


def all_lines_witness(arr, signs, lo, hi, rows) -> tuple[Fraction, Fraction]:
    """Oracle: the witness scan that reading only a cell's facet lines
    replaced, verbatim.  The Fourier-Motzkin witness of the cell with these
    signs and x-extent (lo, hi): x inside the extent, then y inside the
    cell's y-range at x, found in integers over the non-vertical rows (k, a,
    b, c, up)."""
    if lo is not None and lo == hi:
        # a half-plane bounded by one vertical line: its open side is that line's sign
        line, s = next((l, s) for l, s in zip(arr.lines, signs) if l.b == 0 and -l.c / l.a == lo)
        lo, hi = (lo, None) if s * line.a > 0 else (None, hi)
    x = _inside(lo, hi)
    p, q = x.numerator, x.denominator
    below = above = None  # nearest lines under and over the cell at x, as (n, b): y = n / (b*q)
    for k, a, b, c, up in rows:
        n = -(a * p + c * q)
        if (signs[k] > 0) == up:
            if below is None or n * below[1] > below[0] * b:
                below = (n, b)
        elif above is None or n * above[1] < above[0] * b:
            above = (n, b)
    y_lo = None if below is None else Fraction(below[0], below[1] * q)
    y_hi = None if above is None else Fraction(above[0], above[1] * q)
    return (x, _inside(y_lo, y_hi))


def all_lines_witnesses(arr, regions):
    """Oracle: the witnesses of ``regions`` (the output of
    ``enumerate_regions``, seed cell first) from the all-lines scan, over
    the x-extents folded in Fractions from the stored sweep's facets."""
    extent: dict[int, list] = {}
    for k, mask, lo, hi in stored_fraction_facets(arr):
        for cell in (mask, mask | 1 << k):
            span = extent.setdefault(cell, [lo, hi])
            if span[0] is not None and (lo is None or lo < span[0]):
                span[0] = lo
            if span[1] is not None and (hi is None or hi > span[1]):
                span[1] = hi
    rows = [(k, a, b, c, True) if b > 0 else (k, -a, -b, -c, False)
            for k, (a, b, c) in enumerate(arr._rows) if b]
    return [regions[0].witness] + [all_lines_witness(arr, r.signs, *extent[_mask(r.signs)], rows)
                                   for r in regions[1:]]


def projective_key(line):
    """Oracle for duplicate lines: the coefficients over the first nonzero of a, b."""
    lead = line.a if line.a != 0 else line.b
    return (line.a / lead, line.b / lead, line.c / lead)


@st.composite
def small_arrangements(draw):
    """1-9 distinct lines with coefficients a, b in -2..2 and c in -3..3, so
    parallel classes, concurrent points, vertical and horizontal lines occur."""
    coefficients = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-3, 3))
    triples = draw(st.lists(coefficients.filter(lambda t: t[:2] != (0, 0)), min_size=1,
                            max_size=9, unique_by=lambda t: projective_key(Line.of(*t))))
    return Arrangement(tuple(Line.of(*t) for t in triples))


@st.composite
def rational_arrangements(draw):
    """1-8 distinct lines with rational coefficients, each drawn free, vertical,
    horizontal, parallel to an earlier line, or through the crossing of two
    earlier lines, so parallel classes and triple points are common."""
    q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    nonzero = q.filter(bool)
    lines = [Line.of(draw(nonzero), draw(q), draw(q))]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["free", "vertical", "horizontal", "parallel", "concurrent",
                                     "concurrent"]))
        if kind == "free":
            a, b, c = draw(q), draw(q), draw(q)
        elif kind == "vertical":
            a, b, c = draw(nonzero), 0, draw(q)
        elif kind == "horizontal":
            a, b, c = 0, draw(nonzero), draw(q)
        elif kind == "parallel":
            base, scale = draw(st.sampled_from(lines)), draw(nonzero)
            a, b, c = base.a * scale, base.b * scale, draw(q)
        else:
            l1, l2 = draw(st.sampled_from(lines)), draw(st.sampled_from(lines))
            det = l1.a * l2.b - l2.a * l1.b
            if det == 0:
                continue
            x, y = (l1.b * l2.c - l2.b * l1.c) / det, (l2.a * l1.c - l1.a * l2.c) / det
            a, b = draw(q), draw(q)
            c = -(a * x + b * y)
        if (a, b) == (0, 0) or any(projective_key(l) == projective_key(Line.of(a, b, c))
                                   for l in lines):
            continue
        lines.append(Line.of(a, b, c))
    return Arrangement(tuple(lines))


def random_generic_lines(rng, k):
    """k rational lines, pairwise non-parallel, no three concurrent."""
    while True:
        lines = []
        while len(lines) < k:
            a = Fraction(rng.randint(-5, 5))
            b = Fraction(rng.randint(-5, 5))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if a == 0 and b == 0:
                continue
            cand = Line(a, b, c)
            if any(projective_key(l) == projective_key(cand) for l in lines):
                continue
            lines.append(cand)
        if _is_generic(lines):
            return Arrangement(tuple(lines))


def _is_generic(lines):
    points = []
    for l1, l2 in itertools.combinations(lines, 2):
        det = l1.a * l2.b - l2.a * l1.b
        if det == 0:
            return False
        x = (l1.b * l2.c - l2.b * l1.c) / det
        y = (l2.a * l1.c - l1.a * l2.c) / det
        points.append((x, y))
    return len(set(points)) == len(points)


RATIONAL_TRIPLES = st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 3).filter(lambda t: t[:2] != (0, 0))


class TestValidation:
    @settings(max_examples=200, deadline=None)
    @given(RATIONAL_TRIPLES, RATIONAL_TRIPLES, st.fractions(-3, 3, max_denominator=4).filter(bool))
    @example((0, Fraction(3, 2), 1), (1, 1, 1), Fraction(-2))
    def test_duplicates_are_the_projective_classes(self, t1, t2, scale):
        first = Line.of(*t1)
        for other in (Line.of(*t2), Line.of(*(scale * v for v in t1))):
            if projective_key(first) == projective_key(other):
                with pytest.raises(InputError, match="duplicate"):
                    Arrangement((first, other))
            else:
                Arrangement((first, other))

    def test_zero_normal_rejected(self):
        with pytest.raises(InputError):
            Line.of(0, 0, 1)

    def test_duplicate_lines_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            Arrangement((Line.of(1, 1, 0), Line.of(2, 2, 0)))

    def test_sign_flipped_duplicate_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            Arrangement((Line.of(1, 1, 1), Line.of(-1, -1, -1)))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            Arrangement(())


class TestRegionEnumeration:
    def test_single_line(self):
        regions = enumerate_regions(Arrangement((Line.of(0, 1, 0),)))
        assert len(regions) == 2

    def test_two_crossing(self):
        assert len(enumerate_regions(crossing_pair())) == 4

    def test_two_parallel(self):
        arr = Arrangement((Line.of(0, 1, 0), Line.of(0, 1, -1)))
        assert len(enumerate_regions(arr)) == 3

    def test_three_concurrent(self):
        assert len(enumerate_regions(concurrent_triple())) == 6

    def test_witnesses_satisfy_signs_strictly(self):
        for arr in (crossing_pair(), concurrent_triple(), mosaic_window("triangular", 1)):
            for region in enumerate_regions(arr):
                for line, sign in zip(arr.lines, region.signs):
                    value = line.evaluate(*region.witness)
                    assert value != 0 and (value > 0) == (sign > 0)

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_generic_counts_match_formula_and_brute_force(self, k):
        rng = random.Random(400 + k)
        arr = random_generic_lines(rng, k)
        regions = enumerate_regions(arr)
        assert len(regions) == 1 + k + k * (k - 1) // 2
        assert len(regions) == brute_force_regions(arr)

    @pytest.mark.parametrize("kind", MOSAIC_KINDS)
    def test_mosaic_witnesses_match_fourier_motzkin(self, kind):
        arr = mosaic_window(kind, 3)
        regions = enumerate_regions(arr)
        assert regions[0].witness == _generic_point(arr)
        assert regions == fm_witnesses(arr, regions)

    def test_flood_fill_matches_brute_force_with_parallels(self):
        arr = Arrangement((Line.of(0, 1, 0), Line.of(0, 1, -1), Line.of(1, 0, 0),
                           Line.of(1, -1, Fraction(1, 2))))
        assert len(enumerate_regions(arr)) == brute_force_regions(arr)


class TestAdjacency:
    def test_single_line_single_edge(self):
        arr = Arrangement((Line.of(0, 1, 0),))
        g = region_adjacency(arr, enumerate_regions(arr))
        assert len(g.edges) == 1

    def test_two_crossing_four_cycle(self):
        arr = crossing_pair()
        g = region_adjacency(arr, enumerate_regions(arr))
        assert len(g.edges) == 4
        assert all(sum(1 for e in g.edges if v in e) == 2 for v in g.vertices)

    def test_three_concurrent_six_cycle(self):
        arr = concurrent_triple()
        g = region_adjacency(arr, enumerate_regions(arr))
        assert len(g.vertices) == 6 and len(g.edges) == 6
        assert all(sum(1 for e in g.edges if v in e) == 2 for v in g.vertices)
        assert is_partial_cube(g).accepted

    def test_facet_check_agrees_with_flip_feasibility(self):
        # two regions at sign distance one always share a facet, and the
        # sweep finds exactly one facet per such pair; the facet test is the
        # literal boundary condition and must hold on every sweep facet
        for arr in (concurrent_triple(), mosaic_window("triangular", 1)):
            n = len(arr.lines)
            regions = enumerate_regions(arr)
            by_signs = {r.signs: r for r in regions}
            flips = set()
            for r in regions:
                for k in range(n):
                    flipped = r.signs[:k] + (-r.signs[k],) + r.signs[k + 1 :]
                    if flipped in by_signs and r.signs[k] < 0:
                        flips.add((k, r.signs))
            facets = [(k, _signs(mask, n)) for k, mask, _, _ in _facets(arr)]
            assert sorted(facets) == sorted(flips)
            for k, signs in facets:
                assert _facet_shared(arr, signs, k), (signs, k)
                plus = signs[:k] + (1,) + signs[k + 1 :]
                assert _facet_shared(arr, plus, k), (plus, k)

    @pytest.mark.parametrize("arr", [
        Arrangement((Line.of(1, 0, -1),)),
        Arrangement((Line.of(-2, 0, 1), Line.of(1, 0, 3), Line.of(0, 1, 0))),
        Arrangement((Line.of(1, 1, 0), Line.of(1, -1, 0), Line.of(0, 1, Fraction(-1, 2)))),
        concurrent_triple(),
        mosaic_window("truncated-square", 1),
    ])
    def test_facet_x_ranges_match_the_closures(self, arr):
        n = len(arr.lines)
        for k, mask, lo, hi in stored_fraction_facets(arr):
            assert (lo, hi) == _facet_x_range(arr, _signs(mask, n), k), (k, mask)

    def test_sweep_runs_once_per_arrangement(self):
        arr = mosaic_window("triangular", 1)
        facets = _facets(arr)
        region_adjacency(arr, enumerate_regions(arr))
        assert _facets(arr) is facets

    def test_subset_gives_induced_subgraph(self):
        rng = random.Random(31)
        for arr in (concurrent_triple(), mosaic_window("triangular", 1),
                    random_generic_lines(rng, 5)):
            regions = enumerate_regions(arr)
            full = region_adjacency(arr, regions)
            for size in (0, 1, len(regions) // 2, len(regions) - 1):
                subset = rng.sample(regions, size)
                got = region_adjacency(arr, subset)
                assert got == pair_scan_adjacency(arr, subset)
                kept = set(got.vertices)
                assert got.edges == tuple(e for e in full.edges if set(e) <= kept)

    def test_graph_distance_equals_sign_distance(self):
        rng = random.Random(77)
        arr = random_generic_lines(rng, 5)
        regions = enumerate_regions(arr)
        g = region_adjacency(arr, regions)
        adj = adjacency(g)
        names = {}
        for r in regions:
            names[r.name] = r
        for u in g.vertices:
            dist = bfs_distances(adj, u)
            for v in g.vertices:
                expected = distance(frozenset(names[u].positive), frozenset(names[v].positive))
                assert dist[v] == expected

    def test_separating_line_count_is_the_distance(self):
        arr = concurrent_triple()
        regions = enumerate_regions(arr)
        for r1 in regions:
            for r2 in regions:
                separating = sum(1 for a, b in zip(r1.signs, r2.signs) if a != b)
                assert separating == distance(frozenset(r1.positive), frozenset(r2.positive))


class TestArrangementMedium:
    @pytest.mark.parametrize("builder", [crossing_pair, concurrent_triple])
    def test_small_examples_are_media(self, builder):
        arr = builder()
        ts = arrangement_medium(arr)
        assert decide_medium(ts).is_medium

    def test_single_line(self):
        ts = arrangement_medium(Arrangement((Line.of(1, 2, 3),)))
        assert len(ts.states) == 2
        assert decide_medium(ts).is_medium

    def test_generic_lines_pipeline(self):
        rng = random.Random(9)
        arr = random_generic_lines(rng, 3)
        regions = enumerate_regions(arr)
        assert len(regions) == 7
        g = region_adjacency(arr, regions)
        assert is_partial_cube(g).accepted
        assert decide_medium(arrangement_medium(arr, regions, g)).is_medium

    def test_region_family_is_well_graded(self):
        arr = concurrent_triple()
        fam = region_family(arr, enumerate_regions(arr))
        assert is_well_graded(fam)


class TestMosaics:
    @pytest.mark.parametrize("kind", ["triangular", "truncated-square"])
    def test_radius_one_window_is_partial_cube(self, kind):
        arr = mosaic_window(kind, 1)
        regions = enumerate_regions(arr)
        g = region_adjacency(arr, regions)
        assert is_partial_cube(g).accepted

    def test_triangular_cells_touch_three_neighbors_in_the_bulk(self):
        # cells inside the window disk are triangles; only boundary cells
        # (witness outside the disk) may gain extra facets
        arr = mosaic_window("triangular", 2)
        regions = enumerate_regions(arr)
        g = region_adjacency(arr, regions)
        inner = 0
        for r in regions:
            x, y = r.witness
            if x * x + y * y <= 4:
                name = r.name
                assert sum(1 for e in g.edges if name in e) == 3
                inner += 1
        assert inner >= 6

    def test_degenerate_radius_rejected(self):
        with pytest.raises(InputError):
            mosaic_window("triangular", 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            mosaic_window("penrose", 1)

    def test_unknown_kind_past_the_radius_cap_is_an_input_error(self):
        with pytest.raises(InputError):
            mosaic_window("penrose", MOSAIC_MAX_RADIUS + 1)

    def test_radius_over_the_cap_builds_no_line(self):
        with mock.patch("tokenmedia.arrangements.Line.of", side_effect=AssertionError):
            with pytest.raises(CapError):
                mosaic_window("truncated-square", MOSAIC_MAX_RADIUS + 1)

    def test_line_counts(self):
        arr = mosaic_window("triangular", 1)
        # offsets: |t| <= r*|n|; pencils (0,1), (-1,1), (-1,2)
        assert len(arr.lines) == 3 + 3 + 5


class TestJsonRoundTrip:
    def test_rationals_survive(self):
        arr = Arrangement((Line.of(1, -2, Fraction(3, 4)),))
        doc = arr.to_json_dict()
        assert doc["lines"][0]["c"] == "3/4"
        again = Arrangement.from_json_dict(doc)
        assert again == arr


@settings(max_examples=300, deadline=None)
@given(small_arrangements())
@example(Arrangement((Line.of(1, 0, 0), Line.of(1, 0, -1), Line.of(0, 1, 0), Line.of(0, 1, 2),
                      Line.of(1, 1, 0), Line.of(1, -1, 0), Line.of(1, 1, -1))))
# x-extent corner cases: half-planes of one vertical line (either sign of a),
# a vertical strip, vertical lines only, and a vertical with a horizontal line
@example(Arrangement((Line.of(1, 0, -1),)))
@example(Arrangement((Line.of(-2, 0, 1),)))
@example(Arrangement((Line.of(1, 0, 0), Line.of(1, 0, -1))))
@example(Arrangement((Line.of(1, 0, 2), Line.of(-1, 0, 1), Line.of(2, 0, -5), Line.of(1, 0, -3))))
@example(Arrangement((Line.of(1, 0, 0), Line.of(0, 1, 0))))
@example(Arrangement((Line.of(Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4)),
                      Line.of(Fraction(-3, 2), Fraction(1, 6), Fraction(-5, 9)),
                      Line.of(Fraction(2, 7), 0, Fraction(1, 8)))))
def test_sweep_matches_fourier_motzkin_oracle(arr):
    regions = enumerate_regions(arr)
    assert regions == fm_regions(arr)
    got, want = region_adjacency(arr, regions), pair_scan_adjacency(arr, regions)
    assert got == want
    assert list(got.edge_labels.items()) == list(want.edge_labels.items())


# the integer sweep against the Fraction sweep it replaced: facets in the same
# order with the same masks and exact x-ranges, so the regions come out the same


@settings(max_examples=300, deadline=None)
@given(small_arrangements())
def test_integer_sweep_matches_fraction_sweep(arr):
    assert stored_fraction_facets(arr) == fraction_facets(arr)
    # the table: distinct x-values as reduced pairs, ascending, between the two unbounded ends
    xs = arr._xs
    assert xs[0] is xs[-1] is None
    assert all(Fraction(*x).as_integer_ratio() == x for x in xs[1:-1])
    assert [Fraction(*x) for x in xs[1:-1]] == sorted({Fraction(*x) for x in xs[1:-1]})


@settings(max_examples=200, deadline=None)
@given(rational_arrangements())
# vertical lines only; horizontal and vertical parallels; a four-line pencil;
# rational coefficients with one vertical line
@example(Arrangement((Line.of(1, 0, 0), Line.of(1, 0, -1), Line.of(-2, 0, 5))))
@example(Arrangement((Line.of(0, -1, 0), Line.of(0, 2, -1), Line.of(1, 0, 0), Line.of(-1, 0, 1))))
@example(Arrangement((Line.of(1, 1, 0), Line.of(-1, -2, 0), Line.of(-3, 1, 0), Line.of(0, 1, 0))))
@example(Arrangement((Line.of(Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4)),
                      Line.of(Fraction(-3, 2), Fraction(1, 6), Fraction(-5, 9)),
                      Line.of(Fraction(2, 7), 0, Fraction(1, 8)))))
def test_integer_sweep_matches_fraction_sweep_on_rational_lines(arr):
    assert stored_fraction_facets(arr) == fraction_facets(arr)
    assert enumerate_regions(arr) == fraction_route_regions(arr)


@pytest.mark.parametrize("kind", MOSAIC_KINDS)
def test_radius_twelve_windows_match_the_fraction_route(kind):
    arr = mosaic_window(kind, 12)
    assert stored_fraction_facets(arr) == fraction_facets(arr)
    assert enumerate_regions(arr) == fraction_route_regions(arr)


# the witness read off a cell's facet lines against the all-lines scan


@settings(max_examples=200, deadline=None)
@given(rational_arrangements())
@example(Arrangement((Line.of(1, 0, -1),)))
@example(Arrangement((Line.of(1, 0, 0), Line.of(1, 0, -1), Line.of(0, 1, 0), Line.of(0, 1, 2),
                      Line.of(1, 1, 0), Line.of(1, -1, 0), Line.of(1, 1, -1))))
def test_facet_line_witnesses_match_the_all_lines_scan(arr):
    regions = enumerate_regions(arr)
    assert [r.witness for r in regions] == all_lines_witnesses(arr, regions)


@pytest.mark.parametrize("kind", MOSAIC_KINDS)
def test_facet_line_witnesses_match_the_all_lines_scan_at_radius_twelve(kind):
    arr = mosaic_window(kind, 12)
    regions = enumerate_regions(arr)
    assert [r.witness for r in regions] == all_lines_witnesses(arr, regions)


def test_region_names_are_built_once_and_match_set_name():
    arr = mosaic_window("truncated-square", 2)
    regions = enumerate_regions(arr)
    ground = _ground(arr)
    for r in regions:
        assert r.name == set_name(frozenset(r.positive), ground)
        assert list(r.positive) == sorted(frozenset(r.positive), key=int)
    graph = region_adjacency(arr, regions)
    ts = arrangement_medium(arr, regions, graph)
    assert all(v is r.name for v, r in zip(graph.vertices, regions))
    assert all(s is r.name for s, r in zip(ts.states, regions))


# --- work counts: no Fraction arithmetic or comparison per region ----------------


class CountingFraction(Fraction):
    """A Fraction that tallies in ``counts`` its constructions, comparisons and
    arithmetic operations.  Results of arithmetic are plain Fractions, so an
    operation counts only with a counted operand, which every Fraction the
    arrangements module builds is while it is patched in."""

    counts = {"built": 0, "compared": 0, "arithmetic": 0}

    def __new__(cls, *args, **kwargs):
        cls.counts["built"] += 1
        return super().__new__(cls, *args, **kwargs)

    __hash__ = Fraction.__hash__


def _counted(kind, name):
    def method(self, *args):
        CountingFraction.counts[kind] += 1
        return getattr(Fraction, name)(self, *args)
    return method


for _name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
    setattr(CountingFraction, _name, _counted("compared", _name))
for _name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
              "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__", "__rmod__", "__pow__",
              "__rpow__", "__neg__", "__pos__", "__abs__"):
    setattr(CountingFraction, _name, _counted("arithmetic", _name))


@pytest.mark.parametrize("build", [
    lambda: mosaic_window("triangular", 5),
    # three parallel verticals (one with a < 0), a triple point at the origin, rational coefficients
    lambda: Arrangement((Line.of(1, 0, 0), Line.of(-1, 0, -1), Line.of(2, 0, -1), Line.of(0, 1, 0),
                         Line.of(1, -1, 0), Line.of(Fraction(1, 3), 1, Fraction(-5, 7)))),
    # vertical lines alone, each with a < 0: both half-planes bounded by one line
    lambda: Arrangement((Line.of(-7, 0, -5), Line.of(-3, 0, -1), Line.of(-2, 0, 1))),
], ids=["triangular-5", "verticals-and-a-triple-point", "verticals-only"])
def test_regions_and_adjacency_do_no_fraction_arithmetic_or_comparison(build):
    with mock.patch("tokenmedia.arrangements.Fraction", CountingFraction):
        arr = build()  # its lines hold counted coefficients, so any work on them is counted
        counts = CountingFraction.counts
        counts.update(dict.fromkeys(counts, 0))
        regions = enumerate_regions(arr)
        built = counts["built"]
        region_adjacency(arr, regions)
    # the x table is sorted on integers; one Fraction per printed witness coordinate
    assert counts == {"built": built, "compared": 0, "arithmetic": 0}
    assert built <= 2 * len(regions)
    assert all(type(v) is CountingFraction for r in regions for v in r.witness)
    assert regions == enumerate_regions(Arrangement(arr.lines))


# --- regions built from masks against regions built from signs --------------------


def random_degenerate_lines(rng, k):
    """k distinct lines with coefficients in -2..2: parallel classes and triple points."""
    lines = []
    while len(lines) < k:
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        if (a, b) != (0, 0) and all(projective_key(l) != projective_key(Line.of(a, b, c))
                                    for l in lines):
            lines.append(Line.of(a, b, c))
    return Arrangement(tuple(lines))


def region_cases():
    rng = random.Random(2029)
    for kind in MOSAIC_KINDS:
        for radius in range(1, 5):
            yield pytest.param(mosaic_window(kind, radius), id=f"{kind}-{radius}")
    for i in range(6):
        yield pytest.param(random_generic_lines(rng, 3 + i), id=f"generic-{i}")
        yield pytest.param(random_degenerate_lines(rng, 4 + i), id=f"degenerate-{i}")


@pytest.mark.parametrize("arr", region_cases())
def test_regions_from_masks_equal_regions_from_signs(arr):
    regions = enumerate_regions(arr)
    rebuilt = tuple(Region(r.signs, r.witness) for r in regions)
    assert regions == rebuilt
    for r, s in zip(regions, rebuilt):
        assert r.mask == s.mask == _mask(r.signs)
        assert r.signs == _signs(r.mask, len(arr.lines))
        assert (r.positive, r.name, r.to_json_dict()["signs"]) == (s.positive, s.name, s.to_json_dict()["signs"])
        assert r.to_json_dict() == s.to_json_dict()
        assert r.to_json_dict()["signs"] == "".join("+" if v > 0 else "-" for v in r.signs)
    got, want = region_adjacency(arr, regions), region_adjacency(arr, rebuilt)
    assert got == want
    assert list(got.edge_labels.items()) == list(want.edge_labels.items())


def test_a_region_from_signs_reads_any_positive_sign_as_plus():
    r = Region((3, -2, 1), (Fraction(0), Fraction(0)))
    assert (r.mask, r.positive, r.name, r.to_json_dict()["signs"]) == (0b101, ("1", "3"), "{1,3}", "+-+")
    assert r.signs == (3, -2, 1)


def region_at(arr, witness):
    """The oracle's region around ``witness``: its signs read by evaluating every
    line there, its name by ``set_name`` and its document joined by hand."""
    x, y = witness
    values = [line.evaluate(x, y) for line in arr.lines]
    assert 0 not in values  # the witness is interior
    signs = tuple(1 if v > 0 else -1 for v in values)
    positive = tuple(str(k + 1) for k, s in enumerate(signs) if s > 0)
    doc = {"signs": "".join("+" if s > 0 else "-" for s in signs), "witness": [str(x), str(y)],
           "positive": list(positive)}
    return signs, _mask(signs), positive, set_name(positive, [str(k + 1) for k in range(len(signs))]), doc


@pytest.mark.parametrize("arr", region_cases())
def test_each_region_is_laid_out_as_its_witness_reads(arr):
    for r in enumerate_regions(arr):
        assert (r.signs, r.mask, r.positive, r.name, r.to_json_dict()) == region_at(arr, r.witness)
        assert Region(r.signs, r.witness) == r


# --- integer literals against the general Fraction route --------------------------


def fraction_route(text: str) -> Fraction:
    """The parser every literal took before integer literals were read by ``int``."""
    limit = sys.get_int_max_str_digits()
    if limit and abs(int(text.lower().partition("e")[2] or 0)) > 2 * limit:
        raise ParseError(f"{text[:40]!r}: exponent past the {limit}-digit limit")
    value = Fraction(text)
    str(value)  # raises ValueError past the digit limit
    return value


def parsed(doc):
    """The lines of the document, each coefficient with its type, or the ParseError's message."""
    try:
        lines = Arrangement.from_json_dict(doc).lines
    except ParseError as exc:
        return "error", str(exc)
    return "lines", [(v, type(v)) for l in lines for v in (l.a, l.b, l.c)]


@st.composite
def literals(draw):
    """Integer literals and near misses: signs, surrounding whitespace,
    underscores, leading zeros, non-ASCII digits, exponents, fractions and
    digit counts around the interpreter's limit."""
    space = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0 　"), max_size=2)
    ascii_digits = st.text(st.sampled_from("0123456789"), min_size=1, max_size=6)
    limit = sys.get_int_max_str_digits() or 4300
    body = draw(st.one_of(
        ascii_digits,
        st.text(st.characters(categories=["Nd"]), min_size=1, max_size=4),
        st.lists(ascii_digits, min_size=1, max_size=3).map("_".join),
        st.text(st.sampled_from("0123456789_"), min_size=1, max_size=6),
        st.builds("{}{}".format, st.text(st.just("0"), max_size=4), ascii_digits),
        st.builds("{}{}{}".format, ascii_digits, st.sampled_from(["e", "E", "e-", "e+", ".", "/", " "]),
                  ascii_digits),
        st.integers(limit - 2, limit + 2).map(lambda n: "7" * n),
        st.integers(limit - 2, limit + 2).map(lambda n: "0" * (n - 1) + "7"),
        st.text(max_size=4),
    ))
    sign = draw(st.sampled_from(["", "+", "-", "+-", "--"]))
    return draw(space) + sign + body + draw(space)


@settings(max_examples=400, deadline=None)
@given(text=literals())
@example(text=" -0_7\n")
@example(text="١٢")
@example(text="1e5")
@example(text="7" * 4301)
def test_integer_literals_parse_as_the_fraction_route_does(text):
    doc = {"lines": [{"a": text, "b": "1", "c": text}]}
    got = parsed(doc)
    with mock.patch("tokenmedia.arrangements._rational", fraction_route):
        want = parsed(doc)
    assert got == want
