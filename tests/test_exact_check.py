"""``check_axioms`` against the bounded falsifier it replaced.

On a medium ``check_axioms`` reads the exact decision and reports M1-M4
"holds" without walking a message.  Every other system must get exactly
the report of ``reference_check_axioms``, the falsifier as it stood before
the decision was read: it runs the M2-M4 walks on every system that passes
M1.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.represent import decide_medium
from tokenmedia.tokens import (
    AXIOMS,
    FAILS,
    HOLDS,
    HOLDS_UP_TO_BOUND,
    SKIPPED,
    AxiomCheck,
    AxiomReport,
    TokenSystem,
    _violates_m2,
    _violates_m3,
    _violates_m4,
    check_axioms,
    reverse_defect,
)

from conftest import no_walks, two_state, twisted_square, wg_families


def reference_check_axioms(ts: TokenSystem, bound: int | None = None) -> AxiomReport:
    """The bounded falsifier that reads no decision (kept verbatim)."""
    if bound is None:
        bound = max(1, 2 * len(ts.tokens))
    if bound < 1:
        raise InputError("bound must be at least 1")
    defect = reverse_defect(ts)
    if defect is not None:
        skipped = tuple(
            AxiomCheck(a, SKIPPED, note="not evaluated: M1 failed, no usable reverse pairing")
            for a in ("M2", "M3", "M4")
        )
        return AxiomReport((AxiomCheck("M1", FAILS, defect),) + skipped, bound)
    rev = ts.reverse
    m1 = AxiomCheck("M1", HOLDS)
    w2 = _violates_m2(ts, rev)
    m2 = AxiomCheck("M2", FAILS, w2) if w2 else AxiomCheck("M2", HOLDS)
    w3 = _violates_m3(ts, rev, bound)
    w4 = _violates_m4(ts, rev, bound)
    m3 = AxiomCheck("M3", FAILS, w3) if w3 else AxiomCheck("M3", HOLDS_UP_TO_BOUND)
    m4 = AxiomCheck("M4", FAILS, w4) if w4 else AxiomCheck("M4", HOLDS_UP_TO_BOUND)
    return AxiomReport((m1, m2, m3, m4), bound)


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


@settings(max_examples=400, deadline=None)
@given(ts=st.one_of(small_systems(), family_systems()),
       bound=st.one_of(st.none(), st.integers(1, 6)))
@example(ts=two_state(), bound=None)
@example(ts=twisted_square(), bound=None)
@example(ts=linear_medium(3)[0], bound=3)
def test_media_hold_without_walks_and_the_rest_match_the_reference(ts, bound):
    fresh = TokenSystem.from_json_dict(ts.to_json_dict())  # nothing stored yet
    expected = reference_check_axioms(ts, bound)
    if decide_medium(ts).is_medium:
        assert expected.ok
        with no_walks():
            report = check_axioms(fresh, bound)
        assert report.to_json_dict() == {"bound": expected.bound,
                                         "axioms": {a: {"verdict": HOLDS} for a in AXIOMS}}
    else:
        report = check_axioms(fresh, bound)
        assert report == expected
        assert report.to_json_dict() == expected.to_json_dict()
