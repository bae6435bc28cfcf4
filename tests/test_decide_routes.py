"""The token-pair decision against the Djokovic-Winkler reference route.

``decide_medium`` labels states by token pairs; ``_theta_decision`` labels
them by the Theta classes of the state graph.  Both must give the same
verdict, the same canonical representation and the same witness.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.cubes import media_isomorphic
from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.represent import _theta_decision, decide_medium
from tokenmedia.tokens import TokenSystem

from conftest import corpus_media


def assert_same_decision(ts):
    assert decide_medium(ts).to_json_dict() == _theta_decision(ts).to_json_dict()


@st.composite
def families(draw):
    """Any family of at least two sets over at most six elements."""
    ground = "abcdef"[:draw(st.integers(1, 6))]
    masks = draw(st.sets(st.integers(0, (1 << len(ground)) - 1), min_size=2, max_size=16))
    sets = [frozenset(x for i, x in enumerate(ground) if m >> i & 1) for m in sorted(masks)]
    return SetFamily(tuple(ground), tuple(sets))


@st.composite
def small_systems(draw):
    """Token systems on 3-4 states with 1-2 declared reverse pairs."""
    states = tuple("ABCD"[:draw(st.integers(3, 4))])
    pairs = draw(st.integers(1, 2))
    tokens = tuple(f"{side}{k}" for k in range(pairs) for side in ("t", "u"))
    action = {t: dict(zip(states, draw(st.lists(st.sampled_from(states), min_size=len(states),
                                                 max_size=len(states)))))
              for t in tokens}
    assume(all(any(row[s] != s for s in states) for row in action.values()))
    reverse = {f"t{k}": f"u{k}" for k in range(pairs)}
    reverse.update({u: t for t, u in list(reverse.items())})
    return TokenSystem(states, tokens, action, reverse)


@settings(max_examples=300, deadline=None)
@given(families())
def test_family_media_agree(fam):
    assert_same_decision(family_medium(fam))


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_small_systems_agree(ts):
    assert_same_decision(ts)


def test_corpus_agrees(corpus):
    for name, ts in corpus:
        assert decide_medium(ts).is_medium, name
        assert_same_decision(ts)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_linear_media_agree(n):
    ts, _ = linear_medium(n)
    assert_same_decision(ts)


@pytest.mark.parametrize("kind", ["triangular", "truncated-square"])
def test_mosaic_region_media_agree(kind):
    assert_same_decision(arrangement_medium(mosaic_window(kind, 1)))


def square_with(changes):
    """The medium of the 4-cycle {}, {a}, {b}, {a,b} with some action entries replaced."""
    good = family_medium(SetFamily.of("ab", [set(), {"a"}, {"b"}, {"a", "b"}]))
    action = {t: dict(good.action[t]) for t in good.tokens}
    for t, s, v in changes:
        action[t][s] = v
    return TokenSystem(good.states, good.tokens, action, good.reverse)


NON_MEDIA = {
    # add:a refuses to move {b}; the remaining graph is a path, a partial cube
    "lazy-four-cycle": lambda: square_with([("add:a", "{b}", "{b}"), ("rem:a", "{a,b}", "{a,b}")]),
    # pair a adds a at {} but removes it at {a,b}: labels fine, polarity mixed
    "twisted-square": lambda: square_with([("add:a", "{b}", "{b}"), ("add:a", "{a,b}", "{b}"),
                                           ("rem:a", "{a,b}", "{a,b}"), ("rem:a", "{b}", "{a,b}")]),
    # an induced path of the 3-cube whose ends are at distance 2, not 4
    "snake": lambda: family_medium(SetFamily.of("abc", [set(), {"a"}, {"a", "b"}, {"a", "b", "c"},
                                                        {"b", "c"}])),
}


@pytest.mark.parametrize("name", sorted(NON_MEDIA))
def test_non_media_are_rejected_by_both(name):
    ts = NON_MEDIA[name]()
    assert not decide_medium(ts).is_medium
    assert_same_decision(ts)
    with pytest.raises(InputError):
        media_isomorphic(ts, ts)


def relabel(ts, rng):
    """A copy of ts with fresh state and token names, both listed in a shuffled order."""
    state_name = dict(zip(ts.states, rng.sample([f"s{i}" for i in range(len(ts.states))],
                                                 len(ts.states))))
    token_name = dict(zip(ts.tokens, rng.sample([f"k{i}" for i in range(len(ts.tokens))],
                                                 len(ts.tokens))))
    states = tuple(rng.sample(sorted(state_name.values()), len(ts.states)))
    tokens = tuple(rng.sample(sorted(token_name.values()), len(ts.tokens)))
    action = {token_name[t]: {state_name[s]: state_name[v] for s, v in row.items()}
              for t, row in ts.action.items()}
    reverse = {token_name[t]: token_name[r] for t, r in ts.reverse.items()}
    return TokenSystem(states, tokens, action, reverse)


def test_isomorphism_of_relabelled_copies_replays():
    rng = random.Random(2005)
    media = [ts for _, ts in corpus_media()] + [linear_medium(4)[0]]
    for ts in media:
        for _ in range(3):
            other = relabel(ts, rng)
            alpha, beta = media_isomorphic(ts, other)
            assert sorted(alpha.values()) == sorted(other.states)
            assert sorted(beta.values()) == sorted(other.tokens)
            for t in ts.tokens:
                for s in ts.states:
                    assert alpha[ts.action[t][s]] == other.action[beta[t]][alpha[s]]
