"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import itertools
import math
import random
import time
from collections import Counter

from tokenmedia.arrangements import (
    Arrangement,
    Line,
    arrangement_medium,
    enumerate_regions,
    mosaic_window,
    region_adjacency,
    region_family,
)
from tokenmedia.cubes import (
    CubeIsometry,
    extend_isometry,
    is_partial_cube,
    media_isomorphic,
    medium_graph,
)
from tokenmedia.families import SetFamily, distance, family_medium, is_well_graded
from tokenmedia.linorders import LinearOrder, encode, linear_medium
from tokenmedia.represent import (
    contents,
    decide_medium,
    orient_from_state,
    positive_content_family,
)
from tokenmedia.tokens import TokenSystem, check_axioms, straight_message

import walks
from conftest import (
    adjacency,
    bfs_distances,
    corpus_media,
    hexagon_family,
    hexagon_variant_family,
    path3,
    random_subsets,
    random_wg_family,
)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_decision_matches_bounded_axioms():
    """Exhaustive 3-state sweep: decide_medium == the bounded walks at bound 8,
    with a census of the axiom each non-medium fails first.  The walks, kept
    as oracles in ``walks``, are called directly.  On every system that
    passes M1, each verdict the exact ``check_axioms`` evaluates must equal
    theirs (at 3 states, bound 8 exceeds 2S + 1, past which no shortest
    violation lies)."""
    t0 = time.time()
    states = ("A", "B", "C")
    actions = []
    for img in itertools.product(states, repeat=3):
        row = dict(zip(states, img))
        if any(row[s] != s for s in states):
            actions.append(row)
    assert len(actions) == 26

    disagreements = 0
    count = 0
    census = Counter()

    def run(tokens, act, rev):
        nonlocal disagreements, count
        ts = TokenSystem(states, tokens, act, rev)
        count += 1
        axioms = walks.bounded_report(ts, bound=8)
        medium = decide_medium(ts).is_medium
        if walks.passes(axioms) != medium:
            disagreements += 1
        elif axioms["M1"].verdict == "holds":  # both reports read M1 off one reverse_defect
            exact = check_axioms(ts)
            if exact.ok != medium or any(
                    c.verdict != "skipped" and (c.verdict == "fails") != (axioms[c.axiom].verdict == "fails")
                    for c in exact.checks):
                disagreements += 1
        if medium:
            census["medium"] += 1
        else:
            census["fails " + next((c.axiom for c in axioms.checks if c.verdict == "fails"),
                                   "nothing")] += 1

    run((), {}, {})
    rev2 = {"t": "u", "u": "t"}
    for a0, a1 in itertools.product(actions, repeat=2):
        run(("t", "u"), {"t": a0, "u": a1}, rev2)
    rev4 = {"t": "u", "u": "t", "v": "w", "w": "v"}
    for a0, a1, a2, a3 in itertools.product(actions, repeat=4):
        run(("t", "u", "v", "w"), {"t": a0, "u": a1, "v": a2, "w": a3}, rev4)

    elapsed = time.time() - t0
    assert count == 1 + 26**2 + 26**4
    report(
        1,
        disagreements == 0 and elapsed < 60,
        f"{count} systems, {disagreements} disagreements, "
        f"{', '.join(f'{k}: {v}' for k, v in sorted(census.items()))}; {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_well_graded_iff_medium():
    """Exhaustive |X|=3 families plus 1000 random |X|=5 families."""
    subsets3 = [
        frozenset(s) for r in range(4) for s in itertools.combinations("abc", r)
    ]
    checked = 0
    mismatches = 0
    for mask in range(1 << 8):
        chosen = tuple(subsets3[i] for i in range(8) if mask >> i & 1)
        if len(chosen) < 2:
            continue
        fam = SetFamily(("a", "b", "c"), chosen)
        if is_well_graded(fam) != decide_medium(family_medium(fam)).is_medium:
            mismatches += 1
        checked += 1
    assert checked == 2**8 - 1 - 8

    rng = random.Random(20250809)
    for _ in range(1000):
        fam = random_subsets(rng, "abcde", rng.randint(2, 12))
        if is_well_graded(fam) != decide_medium(family_medium(fam)).is_medium:
            mismatches += 1
        checked += 1
    report(2, mismatches == 0, f"{checked} families, {mismatches} discrepancies")


def test_criterion_3_hexagon_and_variant():
    """Two six-state media over {a,b,c}: both media, non-isomorphic partial cubes."""
    a = family_medium(hexagon_family())
    b = family_medium(hexagon_variant_family())
    ok = decide_medium(a).is_medium and decide_medium(b).is_medium
    ok = ok and media_isomorphic(a, b) is None
    ok = ok and is_partial_cube(medium_graph(a)).accepted
    ok = ok and is_partial_cube(medium_graph(b)).accepted
    report(3, ok, "both verify, graphs are partial cubes, media not isomorphic")


EXPECTED_N3_ENCODINGS = {
    "123": frozenset({"1<2", "1<3", "2<3"}),
    "213": frozenset({"1<3", "2<3"}),
    "231": frozenset({"2<3"}),
    "321": frozenset(),
    "312": frozenset({"1<2"}),
    "132": frozenset({"1<2", "1<3"}),
}


def test_criterion_4_linear_media():
    """n=3 reproduces the six canonical encodings; n=4,5 shapes; n=5 < 10s."""
    ts3, fam3 = linear_medium(3)
    base = LinearOrder(("1", "2", "3"))
    got = {s: encode(LinearOrder(tuple(s)), base) for s in ts3.states}
    ok = got == EXPECTED_N3_ENCODINGS
    ok = ok and set(fam3.sets) == set(EXPECTED_N3_ENCODINGS.values())
    g3 = medium_graph(ts3)
    ok = ok and len(g3.vertices) == 6 and len(g3.edges) == 6
    ok = ok and all(sum(1 for e in g3.edges if v in e) == 2 for v in g3.vertices)
    pc3 = is_partial_cube(g3)
    ok = ok and pc3.accepted and len(set(pc3.edge_classes.values())) == 3

    t0 = time.time()
    detail = []
    for n in (4, 5):
        ts, fam = linear_medium(n)
        states = math.factorial(n)
        edges = states * (n - 1) // 2
        g = medium_graph(ts)
        ok = ok and len(ts.states) == states and len(g.edges) == edges
        ok = ok and is_well_graded(fam)
        ok = ok and decide_medium(ts).is_medium
        detail.append(f"n={n}: {states} states {edges} edges")
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    report(4, ok, f"n=3 encodings exact; {'; '.join(detail)}; {elapsed:.1f}s (< 10s)")


def _acceptance_corpus():
    media = corpus_media()
    for n in (3, 4, 5):
        media.append((f"linear-{n}", linear_medium(n)[0]))
    cross = Arrangement((Line.of(1, 0, 0), Line.of(0, 1, 0)))
    media.append(("crossing-pair", arrangement_medium(cross)))
    triple = Arrangement((Line.of(0, 1, 0), Line.of(1, -1, 0), Line.of(1, 1, 0)))
    media.append(("concurrent-triple", arrangement_medium(triple)))
    window = mosaic_window("triangular", 1)
    media.append(("triangular-window", arrangement_medium(window)))
    return media


def test_criterion_5_representation_round_trip():
    """Positive-content family reconstructs each corpus medium up to isomorphism."""
    failures = []
    total = 0
    for name, ts in _acceptance_corpus():
        total += 1
        if len(ts.states) > 200:
            failures.append(f"{name}: corpus medium too large")
            continue
        table = contents(ts)
        for s in ts.states:
            c = table[s]
            for t in ts.tokens:
                if (t in c) == (ts.reverse[t] in c):
                    failures.append(f"{name}: pair rule broken at {s}")
        if len({len(c) for c in table.values()}) != 1:
            failures.append(f"{name}: contents have unequal cardinalities")
        rep = positive_content_family(ts, orient_from_state(ts, ts.states[0]))
        rebuilt = family_medium(rep.family)
        if media_isomorphic(ts, rebuilt) is None:
            failures.append(f"{name}: reconstruction not isomorphic")
    report(5, not failures, f"{total} media round-tripped" if not failures else "; ".join(failures))


def test_criterion_6_isometry_extension():
    """500 random trials: extend a family isometry to the whole cube."""
    rng = random.Random(606)
    failures = 0
    for trial in range(500):
        size = rng.randint(1, 6)
        ground = tuple("abcdef"[:size])
        fam = random_wg_family(rng, ground, rng.randint(2, min(10, 2 ** size)))
        shift = frozenset(x for x in ground if rng.random() < 0.5)
        perm = dict(zip(ground, rng.sample(ground, size)))
        sigma = CubeIsometry(ground, shift, perm)
        image = SetFamily(ground, tuple(sigma.apply(s) for s in fam.sets))
        alpha = {s: sigma.apply(s) for s in fam.sets}
        try:
            iso = extend_isometry(fam, image, alpha)
        except Exception:
            failures += 1
            continue
        if any(iso.apply(s) != alpha[s] for s in fam.sets):
            failures += 1
            continue
        probes = [frozenset(x for x in ground if rng.random() < 0.5) for _ in range(100)]
        images = [iso.apply(p) for p in probes]  # once per probe, not once per pair
        for i in range(len(probes)):
            for j in range(i + 1, len(probes)):
                if distance(images[i], images[j]) != distance(probes[i], probes[j]):
                    failures += 1
                    break
            else:
                continue
            break
    report(6, failures == 0, f"500 trials, {failures} failures")


def test_criterion_7_arrangements():
    """Generic counts, partial cubes, media; mosaic windows at radius 1..5 and 8."""
    from test_arrangements import brute_force_regions, random_generic_lines

    t0 = time.time()
    ok = True
    details = []
    rng = random.Random(707)
    for k in range(3, 9):
        arr = random_generic_lines(rng, k)
        regions = enumerate_regions(arr)
        expected = 1 + k + k * (k - 1) // 2
        ok = ok and len(regions) == expected == brute_force_regions(arr)
        graph = region_adjacency(arr, regions)
        ok = ok and is_partial_cube(graph).accepted
        ok = ok and decide_medium(arrangement_medium(arr, regions, graph)).is_medium
        ok = ok and is_well_graded(region_family(arr, regions))
    details.append("k=3..8 generic")

    triple = Arrangement((Line.of(0, 1, 0), Line.of(1, -1, 0), Line.of(1, 1, 0)))
    regions = enumerate_regions(triple)
    graph = region_adjacency(triple, regions)
    ok = ok and len(regions) == 6
    ok = ok and all(sum(1 for e in graph.edges if v in e) == 2 for v in graph.vertices)
    details.append("3 concurrent = 6-cycle")

    for kind in ("triangular", "truncated-square"):
        for radius in (1, 2, 3, 4, 5, 8):
            window = mosaic_window(kind, radius)
            g = region_adjacency(window, enumerate_regions(window))
            ok = ok and is_partial_cube(g).accepted
    details.append("windows radius 1..5, 8")

    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    report(7, ok, f"{'; '.join(details)}; {elapsed:.1f}s (< 120s)")


def test_criterion_8_negative_controls():
    """K3, C5, K23 rejected with verifiable witnesses; endpoint reduction fails M2."""
    from tokenmedia.cubes import LabeledGraph
    from tokenmedia.tokens import reduction

    ok = True
    k3 = LabeledGraph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
    pc = is_partial_cube(k3)
    ok = ok and not pc.accepted and pc.witness["kind"] == "odd-cycle"
    ok = ok and len(pc.witness["cycle"]) % 2 == 1

    vs = tuple("abcde")
    c5 = LabeledGraph(vs, tuple((vs[i], vs[(i + 1) % 5]) for i in range(5)))
    pc = is_partial_cube(c5)
    ok = ok and not pc.accepted and pc.witness["kind"] == "odd-cycle"

    k23 = LabeledGraph(
        ("a1", "a2", "b1", "b2", "b3"),
        tuple((a, b) for a in ("a1", "a2") for b in ("b1", "b2", "b3")),
    )
    pc = is_partial_cube(k23)
    ok = ok and not pc.accepted and pc.witness["kind"] == "theta-violation"
    if ok:
        adj = adjacency(k23)
        dist = {v: bfs_distances(adj, v) for v in k23.vertices}

        def theta(e1, e2):
            (x, y), (u, v) = e1, e2
            return dist[x][u] + dist[y][v] != dist[x][v] + dist[y][u]

        e, f, h = (tuple(x) for x in pc.witness["edges"])
        ok = ok and theta(e, f) and theta(f, h) and not theta(e, h)

    stranded = reduction(path3(), ["P", "R"])
    decision = decide_medium(stranded)
    ok = ok and not decision.is_medium and decision.witness["axiom"] == "M2"
    ok = ok and straight_message(stranded, "P", "R") is None
    report(8, ok, "K3, C5, K2,3 and the endpoint reduction all rejected with witnesses")
