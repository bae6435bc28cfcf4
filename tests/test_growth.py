"""Growth gates: the lines a route runs in ``tokenmedia`` at size n and 2n.

Line counts are deterministic, so a route that grows faster than its
documented rate fails here without a wall-clock bound.  Each case builds
its inputs fresh, counts one call at both sizes and bounds the ratio; one
bounds the bytes a command prints instead.
"""

import contextlib
import io
import itertools

from tokenmedia import cli
from tokenmedia.arrangements import (
    Arrangement,
    arrangement_medium,
    enumerate_regions,
    mosaic_window,
    region_adjacency,
    region_family,
)
from tokenmedia.cubes import LabeledGraph, is_partial_cube
from tokenmedia.linorders import linear_medium
from tokenmedia.represent import decide_medium, orient_from_state, positive_content_family
from tokenmedia.tokens import (
    FAILS,
    HOLDS,
    TokenSystem,
    apply,
    check_axioms,
    is_stepwise_effective,
    reverse_defect,
)

from conftest import assert_lines_grow_at_most
from test_large_media import chain
from test_straight_sets import long_path


def test_check_of_a_long_non_separating_path_grows_linearly():
    # M4 on a component that fails the separation test: a BFS from every
    # state grew about 3.9 times from 258 to 508 states
    small, large = long_path(250), long_path(500)
    reports = []
    assert_lines_grow_at_most(2.5, lambda ts: reports.append(check_axioms(ts)), small, large)
    for report in reports:
        assert [c.verdict for c in report.checks] == [HOLDS, FAILS, HOLDS, HOLDS]


def test_decision_of_a_chain_grows_linearly():
    small, large = chain(500, 0), chain(1000, 0)
    decisions = []
    assert_lines_grow_at_most(2.2, lambda ts: decisions.append(decide_medium(ts)), small, large)
    assert all(d.is_medium for d in decisions)


def test_reverse_defect_of_a_chain_grows_linearly():
    # M1 inverts each token's moves once, and hashes each token's moves
    # once to look for twins
    defects = []
    assert_lines_grow_at_most(2.2, lambda ts: defects.append(reverse_defect(ts)), chain(500, 0), chain(1000, 0))
    assert defects == [None, None]


def represent(ts):
    """What ``tokenmedia represent`` runs: the decision, the base state's
    orientation, the positive-content family and its document."""
    decide_medium(ts)
    return positive_content_family(ts, orient_from_state(ts, ts.states[0])).to_json_dict()


def check(ts):
    """What ``tokenmedia check`` runs: the axiom report and the decision, with their documents."""
    return check_axioms(ts).to_json_dict(), decide_medium(ts).to_json_dict()


# Both lay out each state's set from its int label at C level, so the line
# counts leave out the work on the labels' bits: S-bit ints on a chain of S
# states.  Laid out by a scan of the ground, one line per coordinate and
# state, the chain's counts grew about 3.6 times from 300 to 600 states.


def test_represent_and_check_of_a_chain_grow_linearly():
    for route in (represent, check):
        assert_lines_grow_at_most(2.2, route, chain(300, 0), chain(600, 0))


def test_represent_and_check_of_linear_media_grow_with_the_moves():
    # linear 3 has 12 moves and linear 6 has 3,600; the ground scan's counts
    # grew 130 times, within this bound, as the ground only grows from 3 to 15
    moves = [sum(map(len, linear_medium(n)[0]._index_moves.values())) for n in (3, 6)]
    assert moves == [12, 3600]
    for route in (represent, check):
        assert_lines_grow_at_most(moves[1] / moves[0], route, linear_medium(3)[0], linear_medium(6)[0])


def test_walks_grow_with_the_message():
    # apply and is_stepwise_effective up a 501-state chain, 250 and 500
    # tokens long: each step finds its image in the token's moves
    ups = [f"u{i}" for i in range(500)]
    small, large = (chain(501, 0), ups[:250]), (chain(501, 0), ups)
    ends = []
    assert_lines_grow_at_most(2.2, lambda case: ends.append(apply(case[0], "s0", case[1])), small, large)
    assert ends == ["s250", "s500"]
    small, large = (chain(501, 0), ups[:250]), (chain(501, 0), ups)
    verdicts = []
    assert_lines_grow_at_most(2.2, lambda case: verdicts.append(is_stepwise_effective(case[0], "s0", case[1])),
                              small, large)
    assert verdicts == [True, True]


def sparse_chain_document(n):
    """The path medium on n states as a "moves" document, as ``chain(n, 0)`` builds it."""
    names = [f"s{i}" for i in range(n)]
    toks, moves = [], {}
    for i in range(n - 1):
        toks += {"id": f"u{i}", "reverse": f"d{i}"}, {"id": f"d{i}", "reverse": f"u{i}"}
        moves[f"u{i}"], moves[f"d{i}"] = {names[i]: names[i + 1]}, {names[i + 1]: names[i]}
    return {"states": names, "tokens": toks, "moves": moves}


def test_parsing_a_sparse_document_grows_with_its_size():
    systems = []
    assert_lines_grow_at_most(2.2, lambda doc: systems.append(TokenSystem.from_json_dict(doc)),
                              sparse_chain_document(500), sparse_chain_document(1000))
    def fields(ts):
        return list(ts.states), ts.tokens, ts.reverse, ts._index_moves

    assert list(map(fields, systems)) == [fields(chain(500, 0)), fields(chain(1000, 0))]


def crossings(arr) -> int:
    """The distinct points where two lines of ``arr`` cross, found with Fractions."""
    points = set()
    for l1, l2 in itertools.combinations(arr.lines, 2):
        det = l1.a * l2.b - l2.a * l1.b
        if det:
            points.add(((l1.b * l2.c - l2.b * l1.c) / det, (l2.a * l1.c - l1.a * l2.c) / det))
    return len(points)


def test_region_routes_grow_with_crossings_plus_regions():
    # regions, their graph, their medium, their family and their documents on
    # triangular windows of radius 3 and 6, through the library and as the CLI
    # prints them; a sign vector built per region over every line grew about
    # 1.33 times faster than crossings plus regions
    small, large = mosaic_window("triangular", 3), mosaic_window("triangular", 6)
    sizes = [crossings(arr) + len(enumerate_regions(Arrangement(arr.lines))) for arr in (small, large)]

    def routes(arr):
        regions = enumerate_regions(arr)
        graph = region_adjacency(arr, regions)
        arrangement_medium(arr, regions, graph)
        region_family(arr, regions)
        [r.to_json_dict() for r in regions]

    assert sizes == [389, 1463]
    assert_lines_grow_at_most(1.1 * sizes[1] / sizes[0], routes, small, large)

    def printed(arr):  # what ``arrangement`` and ``mosaic`` run, their document written to a sink
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli._arrangement_pipeline(arr) == 0

    assert_lines_grow_at_most(1.1 * sizes[1] / sizes[0], printed,
                              mosaic_window("triangular", 3), mosaic_window("triangular", 6))


def test_mosaic_prints_its_moves_not_a_dense_table():
    # bytes printed, not lines run: a region's name lists about r lines, so at radius r
    # the dense action table, states x tokens entries, grows about as r**4 and the moves
    # about as r**3; from radius 4 to 8 the document grew 14.5 times with the table, 7.3 without
    sizes = []
    for radius in (4, 8):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["mosaic", "triangular", "--radius", str(radius)]) == 0
        sizes.append(len(out.getvalue()))
    assert sizes[1] <= 9 * sizes[0]


def chain_union(n):
    """Two disjoint copies of the path medium on n / 2 states that share
    their tokens: n states on which M1, M3 and M4 hold and M2 fails."""
    names = [f"{copy}{i}" for copy in "ab" for i in range(n // 2)]
    return TokenSystem.from_pairs(names, ((f"u{i}", f"d{i}", {f"{copy}{i}": f"{copy}{i + 1}" for copy in "ab"})
                                          for i in range(n // 2 - 1)))


def test_decision_and_check_of_a_disconnected_system_grow_linearly():
    # the line counts leave out the width of the potentials, one field per
    # token pair in each state's int: S/2 - 1 fields on these S states
    decisions = []
    assert_lines_grow_at_most(2.2, lambda ts: decisions.append(decide_medium(ts)),
                              chain_union(1000), chain_union(2000))
    assert [d.is_medium for d in decisions] == [False, False]
    reports = []
    assert_lines_grow_at_most(2.2, lambda ts: reports.append(check_axioms(ts)),
                              chain_union(1000), chain_union(2000))
    for report in reports:
        assert [c.verdict for c in report.checks] == [HOLDS, FAILS, HOLDS, HOLDS]


def hypercube(d):
    names = [format(i, f"0{d}b") for i in range(1 << d)]
    return LabeledGraph(tuple(names), tuple((names[i], names[i | 1 << k]) for i in range(1 << d)
                                            for k in range(d) if not i >> k & 1))


def grid(rows, cols):
    names = [[f"{i},{j}" for j in range(cols)] for i in range(rows)]
    edges = [(names[i][j], names[i][j + 1]) for i in range(rows) for j in range(cols - 1)]
    edges += [(names[i][j], names[i + 1][j]) for i in range(rows - 1) for j in range(cols)]
    return LabeledGraph(tuple(v for row in names for v in row), tuple(edges))


def test_pcube_grows_with_the_classes_times_the_graph():
    # one BFS per Theta class: dim * (V + E) is 6 * 256 and 7 * 576 on Q6
    # and Q7, 14 * 176 and 22 * 360 on the 8 x 8 and 8 x 16 grids.  The
    # counts leave out the width of the separation test's ANDs: each ANDs V-bit
    # ints and counts as one line.
    for small, large, ratio, dims in ((hypercube(6), hypercube(7), 2.63, [6, 7]),
                                      (grid(8, 8), grid(8, 16), 3.21, [14, 22])):
        results = []
        assert_lines_grow_at_most(ratio, lambda g: results.append(is_partial_cube(g)), small, large)
        assert [(r.accepted, r.class_count) for r in results] == [(True, dim) for dim in dims]
