"""One int label per state: the decision, the contents, the orientation and
the positive-content family against the frozenset route they replaced.

``decide_medium`` keeps each state's canonical label as one int, bit k for
coordinate "k", and ``contents``, ``orient_from_state`` and
``positive_content_family`` test its bits; the sets of ``alpha`` and
``family`` are built only when read.  The oracle is the former route, kept
in ``frozenset_labels``: one frozenset per state, toggled along the BFS
tree, renamed into positive contents and written by a scan of the ground.
Both must give the same verdict, witness, alpha, beta, family, contents,
orientations, positive families and documents, on drawn systems and on the
reference media.  Deciding, checking, representing, printing the graph and
the isomorphism search must keep no set per state until ``alpha`` is read;
``graph`` prints what the labelled graph of ``alpha`` printed.
"""

import gc
import json
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmedia import cli
from tokenmedia.arrangements import arrangement_medium, mosaic_window
from tokenmedia.cubes import LabeledGraph, media_isomorphic, medium_graph, to_dot
from tokenmedia.errors import InputError
from tokenmedia.families import SetFamily, family_medium
from tokenmedia.linorders import linear_medium
from tokenmedia.represent import (
    contents,
    decide_medium,
    orient_from_state,
    orientation_from_positive,
    positive_content_family,
)
from tokenmedia.tokens import check_axioms

from conftest import corpus_media, power_set_family, random_wg_family, twisted_square, wg_families
from frozenset_labels import (
    assert_reads_the_same,
    set_contents,
    set_orient_from_state,
    set_pair_decision,
    set_positive_content_family,
)
from test_decide_routes import relabel
from test_exact_check import small_systems
from test_large_media import chain
from tuple_potentials import fresh


def assert_same_as_the_set_route(ts, bases, rng):
    """Both routes on fresh copies of ts: the decision, every content, and
    per base the orientation and its positive family; then orientations
    drawn with ``rng`` that may leave a pair without a positive token."""
    new, old = fresh(ts), fresh(ts)
    decision = decide_medium(new)
    assert_reads_the_same(decision, set_pair_decision(old))
    if not decision.is_medium:
        with pytest.raises(InputError):
            contents(new)
        return
    assert contents(new).contents == set_contents(old).contents
    for base in bases:
        orientation = orient_from_state(new, base)
        assert orientation == set_orient_from_state(old, base)
        assert_reads_the_same(positive_content_family(new, orientation),
                              set_positive_content_family(old, orientation))
    rev = new.reverse
    firsts = [t for t in new.tokens if new.tokens.index(t) < new.tokens.index(rev[t])]
    for _ in range(3):
        picks = [rng.choice([t, rev[t], None]) for t in firsts]
        orientation = orientation_from_positive(new, filter(None, picks))
        try:
            want = set_positive_content_family(old, orientation)
        except InputError:
            with pytest.raises(InputError):
                positive_content_family(new, orientation)
            continue
        assert_reads_the_same(positive_content_family(new, orientation), want)


@settings(max_examples=150, deadline=None)
@given(wg_families(), st.integers(0, 2**32 - 1))
def test_drawn_family_media_read_as_the_set_route(fam, seed):
    ts = family_medium(fam)
    assert_same_as_the_set_route(ts, ts.states, random.Random(seed))


@settings(max_examples=150, deadline=None)
@given(small_systems(), st.integers(0, 2**32 - 1))
def test_drawn_systems_read_as_the_set_route(ts, seed):
    assert_same_as_the_set_route(ts, ts.states, random.Random(seed))


REFERENCE_MEDIA = {
    **{f"linear-{n}": (lambda n=n: linear_medium(n)[0]) for n in range(2, 7)},
    "cube-8": lambda: family_medium(power_set_family("abcdefgh")),
    "chain-200": lambda: chain(200, 7),
    **{f"{kind}-{r}": (lambda kind=kind, r=r: arrangement_medium(mosaic_window(kind, r)))
       for kind in ("triangular", "truncated-square") for r in (1, 2, 3)},
}


@pytest.mark.parametrize("name", sorted(REFERENCE_MEDIA))
def test_reference_media_read_as_the_set_route(name):
    ts = REFERENCE_MEDIA[name]()
    rng = random.Random(name)
    bases = [ts.states[0], ts.states[-1], *rng.sample(ts.states, min(3, len(ts.states)))]
    assert_same_as_the_set_route(ts, bases, rng)


def graph_of(ts, tmp_path, capsys, *dot):
    """``graph`` run on ts's document (and ``--dot`` with a path): its exit code,
    stdout, stderr, and the system it loaded, which holds its decision."""
    path = tmp_path / "system.json"
    path.write_text(json.dumps(ts.to_json_dict()))
    loaded, load = [], cli._load_system
    with mock.patch.object(cli, "_load_system", lambda p: loaded.append(load(p)) or loaded[-1]):
        code = cli.main(["graph", str(path), *dot])
    out, err = capsys.readouterr()
    return code, out, err, loaded[0]


def test_no_route_builds_the_label_sets_until_alpha_is_read(tmp_path, capsys):
    for shown in (linear_medium(4)[0], arrangement_medium(mosaic_window("truncated-square", 2))):
        code, _, _, loaded = graph_of(shown, tmp_path, capsys)
        assert code == 0 and "alpha" not in vars(decide_medium(loaded))
        assert "family" not in vars(decide_medium(loaded))
    ts = linear_medium(5)[0]
    decision = decide_medium(ts)
    check_axioms(ts)
    contents(ts)
    decision.to_json_dict()
    rep = positive_content_family(ts, orient_from_state(ts, ts.states[-1]))
    rep.to_json_dict()
    other = relabel(ts, random.Random(120))
    assert media_isomorphic(ts, other) is not None
    for built in (decision, rep, decide_medium(other)):
        assert "alpha" not in vars(built) and "family" not in vars(built)
        assert len(built.labels) == len(ts.states) and all(type(x) is int for x in built.labels)
    assert decide_medium(ts) is decision
    alpha = decision.alpha  # built on first read, then kept
    assert vars(decision)["alpha"] is alpha is decision.alpha
    assert decision.family == SetFamily(decision.ground, tuple(alpha.values()))


def test_a_decision_that_is_no_medium_has_no_sets():
    decision = decide_medium(twisted_square())
    assert not decision.is_medium
    assert decision.alpha is None and decision.family is None


def test_the_decision_of_triangular_12_keeps_at_most_a_megabyte():
    # the frozenset labels kept 9.7 MB here (3,192 states, 111 coordinates)
    ts = arrangement_medium(mosaic_window("triangular", 12))
    gc.collect()
    tracemalloc.start()
    try:
        decision = decide_medium(ts)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert decision.is_medium and len(decision.labels) == 3192
    assert kept <= 1_000_000, kept


GRAPH_MEDIA = {
    **REFERENCE_MEDIA,
    **{name: (lambda ts=ts: ts) for name, ts in corpus_media()},
    # drawn well-graded families over 14 elements: at least 11 coordinates each
    **{f"drawn-wg-{seed}": (lambda seed=seed: family_medium(
        random_wg_family(random.Random(seed), [f"x{k}" for k in range(14)], 60))) for seed in range(6)},
}


@pytest.mark.parametrize("name", sorted(GRAPH_MEDIA))
def test_graph_prints_the_labeled_graph_of_alpha(name, tmp_path, capsys):
    # the former route: a second LabeledGraph over alpha, checking that each edge flips one element
    dot = tmp_path / "graph.dot"
    code, out, err, loaded = graph_of(GRAPH_MEDIA[name](), tmp_path, capsys, "--dot", str(dot))
    decision = decide_medium(loaded)
    g = medium_graph(loaded)
    oracle = LabeledGraph(g.vertices, g.edges, decision.alpha, g.edge_labels)
    assert (code, err) == (0, "")
    assert out == json.dumps(oracle.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert dot.read_text() == to_dot(oracle)
    assert graph_of(loaded, tmp_path, capsys)[:3] == (0, out, "")
    if name.startswith("drawn-wg") or name == "linear-6":  # coordinate "10" before "2"
        assert len(decision.names) >= 11
    printed = json.loads(out)
    labels = printed["labels"]
    assert all(len(set(labels[u]) ^ set(labels[v])) == 1 for u, v in printed["edges"])
