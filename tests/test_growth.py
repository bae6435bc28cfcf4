"""Growth gates: the lines a route runs in ``tokenmedia`` at size n and 2n.

Line counts are deterministic, so a route that grows faster than its
documented rate fails here without a wall-clock bound.  Each case builds
its inputs fresh, counts one call at both sizes and bounds the ratio.
"""

from tokenmedia.represent import decide_medium
from tokenmedia.tokens import FAILS, HOLDS, check_axioms

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
