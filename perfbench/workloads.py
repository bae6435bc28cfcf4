"""Seeded inputs and jobs of the three workloads.

``build(seed, directory)`` generates a workload's inputs from the seed,
writes them as files, and returns one round of jobs: the closed loop runs
the round again and again.  The program receives only the generated files
and arguments.  Each job carries its exact oracle from ``oracles``, fed
with what the benchmark knows from building the input.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from harness import DEADLINE_S, Job, json_check

import oracles
from tokenmedia import arrangements, cubes, families, linorders

# --- shared generators ---------------------------------------------------------


def _write(directory: Path, name: str, doc) -> str:
    path = directory / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
    return str(path)


def _system_doc(sets, ground) -> dict:
    """The add/remove token system of a set family, built by the program."""
    fam = families.SetFamily(tuple(ground), tuple(sets))
    return families.family_medium(fam).to_json_dict()


def grow_well_graded(rng: random.Random, ground, size: int) -> list[frozenset]:
    """A random well graded family: grow by single toggles that keep it well graded."""
    while True:
        sets = [frozenset(x for x in ground if rng.random() < 0.5)]
        members = set(sets)
        for _ in range(50 * size):
            if len(sets) == size:
                return sets
            cand = rng.choice(sets) ^ {rng.choice(ground)}
            if cand not in members and oracles.grows_well_graded(members, cand):
                sets.append(cand)
                members.add(cand)


def not_well_graded(rng: random.Random, ground, size: int) -> list[frozenset]:
    """A random well graded family plus one set, next to a member where
    possible, that stops it being well graded."""
    for _ in range(100):
        sets = grow_well_graded(rng, ground, size - 1)
        members = set(sets)
        near = list(dict.fromkeys(s ^ {x} for s in sets for x in ground if s ^ {x} not in members))
        far = [c for c in (frozenset(itertools.compress(ground, bits))
                           for bits in itertools.product((0, 1), repeat=len(ground)))
               if c not in members and c not in near]
        rng.shuffle(near)
        rng.shuffle(far)
        for cand in near + far:
            if not oracles.grows_well_graded(members, cand):
                return sets + [cand]
    raise ValueError(f"no non-well-graded family of {size} sets found")


def relabel(doc: dict, rng: random.Random, tag: str) -> dict:
    """The same system under fresh state and token names, in shuffled order."""
    states = list(doc["states"])
    rng.shuffle(states)
    snames = {s: f"{tag}{i}" for i, s in enumerate(states)}
    tokens = [t["id"] for t in doc["tokens"]]
    rng.shuffle(tokens)
    tnames = {t: f"{tag}t{i}" for i, t in enumerate(tokens)}
    rev = {t["id"]: t["reverse"] for t in doc["tokens"]}
    return {
        "states": [snames[s] for s in states],
        "tokens": [{"id": tnames[t], "reverse": tnames[rev[t]]} for t in tokens],
        "action": {tnames[t]: {snames[s]: snames[doc["action"][t][s]] for s in states}
                   for t in tokens},
    }


def raw_graph(doc: dict, rng: random.Random) -> list[tuple[str, str]]:
    """The state graph of a system under anonymous vertex names, edges shuffled."""
    states = list(doc["states"])
    rng.shuffle(states)
    name = {s: f"v{i}" for i, s in enumerate(states)}
    edges = [tuple(name[s] for s in sorted(e)) for e in oracles.edge_set(doc)]
    edges.sort()
    rng.shuffle(edges)
    return edges


def _edge_text(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def grid_sets(lengths) -> tuple[list[str], list[frozenset]]:
    """Product of chains with the given numbers of states, as a set family."""
    ground = [f"d{i}e{k}" for i, n in enumerate(lengths) for k in range(n - 1)]
    sets = [frozenset(f"d{i}e{k}" for i, c in enumerate(cut) for k in range(c))
            for cut in itertools.product(*(range(n) for n in lengths))]
    return ground, sets


# --- media-decide ----------------------------------------------------------------


def _media_jobs(label, doc, directory, rng, kinds, iso_copies=0) -> list[Job]:
    path = _write(directory, f"{label}.json", doc)
    jobs = []
    if "represent" in kinds:
        jobs.append(Job(f"represent:{label}", "represent",
                        json_check(lambda rc, out: oracles.check_represent(doc, out)),
                        argv=["represent", path]))
    if "graph" in kinds:
        jobs.append(Job(f"graph:{label}", "graph",
                        json_check(lambda rc, out: oracles.check_graph(doc, out)),
                        argv=["graph", path]))
    # the search cost depends on the names, so several relabelled copies
    # keep the round's time from moving much from seed to seed
    for copy_no in range(iso_copies):
        copy = relabel(doc, rng, "q")
        other = _write(directory, f"{label}-relabelled{copy_no}.json", copy)
        jobs.append(Job(f"iso:{label}:{copy_no}", "iso",
                        json_check(lambda rc, out, copy=copy: oracles.check_iso(doc, copy, out)),
                        argv=["iso", path, other]))
    if "pcube" in kinds:
        edges = raw_graph(doc, rng)
        gpath = _write(directory, f"{label}.edges", _edge_text(edges))
        jobs.append(Job(f"pcube:{label}", "pcube",
                        json_check(lambda rc, out: oracles.check_partial_cube(edges, out)),
                        argv=["pcube", gpath]))
    return jobs


def _not_isomorphic(first, second):
    # the partner has as many states and tokens but another edge count,
    # so no isomorphism exists; the oracle re-derives that fact
    distinct = len(oracles.edge_set(first)) != len(oracles.edge_set(second))

    def check(rc, out):
        if not distinct:
            return "partner is not provably non-isomorphic"
        return None if out == {"isomorphic": False} else "non-isomorphic pair reported isomorphic"

    return json_check(check)


def _not_medium(rc, out):
    if out.get("error") != "not a medium" or not out.get("witness"):
        return "non-medium accepted or rejected without a witness"
    return None


def _odd_cycle_graph(rng, sets):
    """A family's graph plus one chord between vertices at distance two."""
    edges = _family_edges(sets)
    adj = oracles.adjacency(edges)
    paths = sorted((u, w) for m in adj for u in adj[m] for w in adj[m] if u < w)
    return edges + [rng.choice(paths)]


def _k23_graph(rng, sets):
    """A family's graph plus a vertex joined to three neighbours of one vertex.

    The two vertices then share three neighbours, which no partial cube
    allows, while the graph stays bipartite.
    """
    edges = _family_edges(sets)
    adj = oracles.adjacency(edges)
    hub = rng.choice(sorted(u for u in adj if len(adj[u]) >= 3))
    return edges + [("w", x) for x in rng.sample(sorted(adj[hub]), 3)]


def _family_edges(sets):
    index = {s: f"v{i}" for i, s in enumerate(sets)}
    return [(index[a], index[b]) for a, b in itertools.combinations(sets, 2) if len(a ^ b) == 1]


def build_media_decide(seed: int, directory: Path) -> list[Job]:
    rng = random.Random(f"media-decide:{seed}")
    jobs: list[Job] = []
    for n in (4, 5, 6):
        ts, _ = linorders.linear_medium(n)
        doc = ts.to_json_dict()
        label = f"linear{n}"
        jobs += _media_jobs(label, doc, directory, rng, ("represent", "graph", "pcube"), iso_copies=4)
        ground, sets = grid_sets(range(2, n + 1))  # n! states, C(n, 2) token pairs
        partner = _system_doc(sets, ground)
        ppath = _write(directory, f"grid{n}.json", partner)
        jobs.append(Job(f"iso-neg:{label}", "iso-neg", _not_isomorphic(doc, partner),
                        argv=["iso", str(directory / f"{label}.json"), ppath], expect_rc=1))
        jobs.append(Job(f"linmedium:{n}", "linmedium",
                        json_check(lambda rc, out, n=n: oracles.check_linear_medium(n, out)),
                        argv=["linmedium", str(n)]))
    ground, sets = grid_sets([2] * 8)
    jobs += _media_jobs("cube8", _system_doc(sets, ground), directory, rng,
                        ("represent", "graph", "pcube"), iso_copies=4)
    ground = [f"c{i}" for i in range(199)]
    chain = [frozenset(ground[:k]) for k in range(200)]
    jobs += _media_jobs("chain200", _system_doc(chain, ground), directory, rng, ("represent",),
                        iso_copies=2)
    for kind in arrangements.MOSAIC_KINDS:
        for radius in (1, 2):
            arr = arrangements.mosaic_window(kind, radius)
            regions = arrangements.enumerate_regions(arr)
            graph = arrangements.region_adjacency(arr, regions)
            doc = arrangements.arrangement_medium(arr, regions, graph).to_json_dict()
            jobs += _media_jobs(f"{kind}{radius}", doc, directory, rng, ("represent", "graph"),
                                iso_copies=2)
    # many small families, their sizes on a fixed schedule: they fill the
    # latency distribution densely up past p90, which steadies both quantiles
    for i in range(250):
        ground = [f"x{k}" for k in range(6 + i % 5)]
        sets = grow_well_graded(rng, ground, 8 + i % 50)
        jobs += _media_jobs(f"wg{i}", _system_doc(sets, ground), directory, rng, ("represent", "pcube"))
    for i in range(12):
        ground = [f"x{k}" for k in range(5 + i % 4)]
        path = _write(directory, f"notwg{i}.json", _system_doc(not_well_graded(rng, ground, 11 + i), ground))
        jobs.append(Job(f"represent-neg:notwg{i}", "represent-neg", json_check(_not_medium),
                        argv=["represent", path], expect_rc=1))
    for i in range(8):
        jobs.append(_pcube_negative(rng, directory, f"k23-{i}", _k23_graph, bipartite=True))
    return jobs


def _pcube_negative(rng, directory, label, make, bipartite) -> Job:
    """``pcube`` on a graph that is not a partial cube; exit 1 with a witness."""
    ground = [f"x{k}" for k in range(6)]
    sets = grow_well_graded(rng, ground, 16 + 4 * rng.randrange(3))
    while max(map(len, oracles.adjacency(_family_edges(sets)).values())) < 3:
        sets = grow_well_graded(rng, ground, len(sets))
    edges = make(rng, sets)
    rng.shuffle(edges)
    path = _write(directory, f"{label}.edges", _edge_text(edges))
    check = json_check(lambda rc, out: oracles.check_not_partial_cube(edges, out, bipartite))
    return Job(f"pcube-neg:{label}", "pcube-neg", check, argv=["pcube", path], expect_rc=1)


# --- arrangement-build -------------------------------------------------------------


def _line_doc(lines) -> dict:
    return {"lines": [{"a": str(a), "b": str(b), "c": str(c)} for a, b, c in lines]}


def generic_lines(rng: random.Random, count: int) -> list[tuple]:
    """Lines with no two parallel and no three through one point."""
    lines: list[tuple] = []
    points: set = set()
    while len(lines) < count:
        cand = tuple(Fraction(rng.randint(-30, 30)) for _ in range(3))
        if cand[:2] == (0, 0):
            continue
        new = [oracles.crossing(cand, line) for line in lines]
        if None not in new and len(set(new)) == len(new) and not points.intersection(new):
            lines.append(cand)
            points.update(new)
    return lines


def degenerate_lines(rng: random.Random, count: int) -> list[tuple]:
    """Small integer coefficients: many parallel classes and concurrent points."""
    lines: list[tuple] = []
    keys = set()
    while len(lines) < count:
        a, b, c = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        if (a, b) == (0, 0):
            continue
        lead = a if a else b
        key = (Fraction(a, lead), Fraction(b, lead), Fraction(c, lead))
        if key not in keys:
            keys.add(key)
            lines.append((Fraction(a), Fraction(b), Fraction(c)))
    return lines


def build_arrangement_build(seed: int, directory: Path) -> list[Job]:
    rng = random.Random(f"arrangement-build:{seed}")
    jobs: list[Job] = []
    for radius in (1, 2):
        for kind in arrangements.MOSAIC_KINDS:
            lines = oracles.mosaic_lines(kind, radius)
            jobs.append(Job(f"mosaic:{kind}:{radius}", "mosaic",
                            json_check(lambda rc, out, l=lines: oracles.check_arrangement(l, out)),
                            argv=["mosaic", kind, "--radius", str(radius)]))
    # many arrangements, their sizes on a fixed schedule, so that the latency
    # quantiles rest on many samples and move little from seed to seed
    for i in range(120):
        for label, lines in ((f"generic{i}", generic_lines(rng, 4 + i % 7)),
                             (f"degenerate{i}", degenerate_lines(rng, 6 + i % 5))):
            path = _write(directory, f"{label}.json", _line_doc(lines))
            jobs.append(Job(f"arrangement:{label}", "arrangement",
                            json_check(lambda rc, out, l=lines: oracles.check_arrangement(l, out)),
                            argv=["arrangement", path]))
    return jobs


# --- small-census ----------------------------------------------------------------

THREE_STATES = ("A", "B", "C")
NON_IDENTITY = [dict(zip(THREE_STATES, img)) for img in itertools.product(THREE_STATES, repeat=3)
                if any(a != b for a, b in zip(THREE_STATES, img))]
PAIRS = (("t", "u"), ("v", "w"))


def three_state_system(rng: random.Random, m1_pairs: int) -> dict:
    """A system of the criterion-1 space: three states, one or two reverse pairs.

    ``m1_pairs`` 1 or 2 samples, by rejection, systems with that many pairs
    that pass M1, which uniform sampling almost never hits; 0 samples the
    whole space uniformly.
    """
    while True:
        # 676 of the 457,652 systems in the space have one pair
        pairs = PAIRS[:m1_pairs or (1 if rng.randrange(457652) < 676 else 2)]
        action = {}
        for t, u in pairs:
            action[t] = dict(rng.choice(NON_IDENTITY))
            if m1_pairs:  # u undoes the moves of t; m1_holds rejects a t that is not injective
                action[u] = {s: s for s in THREE_STATES} | {v: s for s, v in action[t].items() if v != s}
            else:
                action[u] = dict(rng.choice(NON_IDENTITY))
        doc = {"states": list(THREE_STATES),
               "tokens": [{"id": x, "reverse": y} for t, u in pairs for x, y in ((t, u), (u, t))],
               "action": action}
        if not m1_pairs or oracles.m1_holds(doc):
            return doc


def _verdicts(out):
    ok = all(c["verdict"] in ("holds", "holds-up-to-bound") for c in out["axioms"]["axioms"].values())
    return ok, out["decision"]["medium"]


def _census_check(rc, out):
    ok, medium = _verdicts(out)
    if not ok == medium == (rc == 0):
        return f"falsifier ok={ok}, decision medium={medium}, exit {rc} disagree"
    return None


def _family_check(well_graded):
    def check(rc, out):
        ok, medium = _verdicts(out)
        if medium != well_graded:
            return f"decision medium={medium} but the family is {'' if well_graded else 'not '}well graded"
        if medium and not ok:
            return "falsifier reports a violation on a medium"
        if (rc == 0) != medium:
            return f"exit code {rc} disagrees with the decision"
        return None
    return json_check(check)


def _isometry_trial(rng: random.Random, elements: int, size: int):
    """Two well graded families related by a random cube isometry S -> pi(S ^ T)."""
    ground = tuple(f"g{k}" for k in range(elements))
    sets = grow_well_graded(rng, list(ground), size)
    shift = frozenset(x for x in ground if rng.random() < 0.5)
    perm = dict(zip(ground, rng.sample(ground, len(ground))))
    alpha = {s: frozenset(perm[x] for x in s ^ shift) for s in sets}
    images = list(alpha.values())
    rng.shuffle(images)
    f1 = families.SetFamily(ground, tuple(sets))
    f2 = families.SetFamily(ground, tuple(images))

    def check(rc, text):
        got = json.loads(text)
        p, t = got["perm"], frozenset(got["translation"])
        if sorted(p) != sorted(ground) or sorted(p.values()) != sorted(ground):
            return "perm is not a permutation of the ground set"
        for s in sets:
            if frozenset(p[x] for x in s ^ t) != alpha[s]:
                return "isometry does not reproduce alpha"
        return None

    return f1, f2, alpha, check


def _render_isometry(iso) -> str:
    return json.dumps({"translation": sorted(iso.translation), "perm": dict(iso.perm)}, sort_keys=True)


def build_small_census(seed: int, directory: Path) -> list[Job]:
    rng = random.Random(f"small-census:{seed}")
    jobs: list[Job] = []
    # sizes and strata follow fixed schedules, so that only the particular
    # systems and sets, not the mix of job costs, change with the seed
    for i in range(192):
        doc = three_state_system(rng, m1_pairs=(0, 1, 0, 2)[i % 4])
        path = _write(directory, f"three{i}.json", doc)
        jobs.append(Job(f"check:three{i}", "check", json_check(_census_check),
                        argv=["check", "--bound", "8", path], expect_rc=None))
    for i in range(96):
        size, step = 3 + i % 2, i // 4
        ground = [f"e{k}" for k in range(size)]
        if i % 4 < 2:
            sets = grow_well_graded(rng, ground, 3 + step % (5 if size == 3 else 6))
        else:  # on three elements, six or more sets are always well graded
            sets = not_well_graded(rng, ground, 3 + step % (3 if size == 3 else 6))
        bound = 6 + step % 3 if size == 3 else 6
        path = _write(directory, f"family{i}.json", _system_doc(sets, ground))
        jobs.append(Job(f"check:family{i}", "check-family", _family_check(oracles.is_well_graded(sets)),
                        argv=["check", "--bound", str(bound), path], expect_rc=None))
    for i in range(48):
        f1, f2, alpha, check = _isometry_trial(rng, 4 + i % 5, 4 + i % 13)
        jobs.append(Job(f"extend_isometry:{i}", "extend_isometry", check,
                        call=lambda f1=f1, f2=f2, alpha=alpha: cubes.extend_isometry(f1, f2, alpha),
                        render=_render_isometry))
    return jobs


def known_defects(workload: str, seed: int, directory: Path) -> list[tuple[Job, float, str]]:
    """Jobs that fail at the seed commit because of a program defect, each with
    its deadline and a description.

    They run once per run, outside the counted jobs, and every run reports
    whether each still fails, so that the defect stays visible until fixed.
    """
    if workload == "small-census":
        ts, _ = linorders.linear_medium(4)
        path = _write(directory, "linear4-probe.json", ts.to_json_dict())
        job = Job("check:linear4-default-bound", "probe", lambda rc, text: None, argv=["check", path])
        return [(job, 2.0, "check at the default bound on linmedium 4 does not finish in 2 s "
                           "(ROADMAP item 4)")]
    if workload == "media-decide":
        rng = random.Random(f"media-decide-odd:{seed}")
        return [(_pcube_negative(rng, directory, f"odd{i}", _odd_cycle_graph, bipartite=False),
                 DEADLINE_S, "pcube on a connected graph with an odd cycle: is_partial_cube stops "
                             "its BFS at the odd edge, then reports 'graph must be connected'")
                for i in range(2)]
    return []


# --- the canary pass ---------------------------------------------------------------


def canary_jobs(directory: Path) -> list[Job]:
    """The smallest call into every wrapped span, used by the traced run only."""
    ts, _ = linorders.linear_medium(3)
    lin3 = _write(directory, "canary-linear3.json", ts.to_json_dict())
    pair = _write(directory, "canary-pair.json", _system_doc([frozenset(), frozenset("a")], ["a"]))
    square = _write(directory, "canary-square.edges", "a b\nb c\nc d\nd a\n")
    arr = _write(directory, "canary-lines.json", _line_doc([(1, 0, 0), (0, 1, 0), (1, 1, 1)]))
    sets = (frozenset(), frozenset("a"), frozenset("ab"))
    fam = families.SetFamily(("a", "b"), sets)
    alpha = {s: s for s in sets}
    none = lambda rc, text: None  # noqa: E731 - the canary checks only exit codes
    cli_runs = [["check", "--bound", "2", pair], ["represent", lin3], ["graph", lin3],
                ["iso", lin3, lin3], ["pcube", square], ["linmedium", "3"],
                ["arrangement", arr], ["mosaic", "triangular", "--radius", "1"]]
    jobs = [Job(f"canary:{argv[0]}", "canary", none, argv=argv) for argv in cli_runs]
    jobs.append(Job("canary:extend_isometry", "canary", none,
                    call=lambda: (families.family_medium(fam), cubes.extend_isometry(fam, fam, alpha))))
    return jobs


#: Spans each workload's own set-up and jobs must reach; a missing one means
#: a call was rerouted and its per-layer numbers would read as a silent zero.
EXPECTED_SPANS = {
    "media-decide": ["cli.main", "tokens.TokenSystem.from_json_dict", "represent.decide_medium",
                     "represent.orient_from_state", "represent.positive_content_family",
                     "cubes.is_partial_cube", "cubes.media_isomorphic", "cubes.medium_graph",
                     "linorders.linear_medium", "families.family_medium",
                     "arrangements.enumerate_regions"],
    "arrangement-build": ["cli.main", "arrangements.mosaic_window",
                          "arrangements.Arrangement.from_json_dict",
                          "arrangements.enumerate_regions", "arrangements.region_adjacency",
                          "arrangements.arrangement_medium", "arrangements.region_family"],
    "small-census": ["cli.main", "tokens.TokenSystem.from_json_dict", "tokens.check_axioms",
                     "represent.decide_medium", "cubes.extend_isometry",
                     "families.family_medium"],
}

#: Seconds one round takes at the seed commit on the reference machine; a
#: run makes as many whole rounds as fit in its --seconds.
ROUND_SECONDS = {"media-decide": 21.0, "arrangement-build": 19.5, "small-census": 0.75}

WORKLOADS = {
    "media-decide": build_media_decide,
    "arrangement-build": build_arrangement_build,
    "small-census": build_small_census,
}
