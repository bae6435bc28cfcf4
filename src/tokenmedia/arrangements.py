"""Regions of finite line arrangements in the plane, with exact rationals.

Every comparison is exact.  One sweep per line sorts the rational
parameters at which the other lines cross it; each open segment between
consecutive crossings is a facet whose two sides are regions differing in
that line's sign alone.  Regions are found by breadth-first search over
these facets, each with a Fourier-Motzkin interior witness, and the region
graph has one edge per facet.  The token system of regions under line
crossings is always a medium; mosaic windows provide finite stand-ins for
the classical locally finite families.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .cubes import LabeledGraph
from .errors import InputError, ParseError
from .families import SetFamily, set_name
from .tokens import TokenSystem

MOSAIC_KINDS = ("triangular", "truncated-square")


@dataclass(frozen=True)
class Line:
    """The line a*x + b*y + c = 0 with rational coefficients; (a, b) != 0."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise InputError("a line needs a nonzero normal vector")

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        return self.a * x + self.b * y + self.c

    def projective_key(self) -> tuple[Fraction, Fraction, Fraction]:
        lead = self.a if self.a != 0 else self.b
        return (self.a / lead, self.b / lead, self.c / lead)

    @classmethod
    def of(cls, a, b, c) -> "Line":
        return cls(Fraction(a), Fraction(b), Fraction(c))


@dataclass(frozen=True)
class Arrangement:
    lines: tuple[Line, ...]

    def __post_init__(self):
        if not self.lines:
            raise InputError("an arrangement needs at least one line")
        keys = [l.projective_key() for l in self.lines]
        if len(set(keys)) != len(keys):
            raise InputError("duplicate lines (projectively equal triples)")

    def to_json_dict(self) -> dict:
        return {"lines": [{"a": str(l.a), "b": str(l.b), "c": str(l.c)} for l in self.lines]}

    @classmethod
    def from_json_dict(cls, doc) -> "Arrangement":
        if not isinstance(doc, dict) or "lines" not in doc:
            raise ParseError("arrangement document needs a 'lines' field")
        lines = []
        for entry in doc["lines"]:
            try:
                lines.append(Line.of(Fraction(str(entry["a"])),
                                     Fraction(str(entry["b"])),
                                     Fraction(str(entry["c"]))))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad line entry {entry!r}: {exc}") from None
            except InputError as exc:
                raise ParseError(str(exc)) from None
        try:
            return cls(tuple(lines))
        except InputError as exc:
            raise ParseError(str(exc)) from None


@dataclass(frozen=True)
class Region:
    """An open cell: its sign per line and a strictly interior rational witness."""

    signs: tuple[int, ...]
    witness: tuple[Fraction, Fraction]

    def positive_indices(self) -> frozenset[str]:
        """1-based indices of the lines with this region on their positive side."""
        return frozenset(str(i + 1) for i, s in enumerate(self.signs) if s > 0)

    def sign_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def to_json_dict(self) -> dict:
        return {
            "signs": self.sign_string(),
            "witness": [str(self.witness[0]), str(self.witness[1])],
            "positive": sorted(self.positive_indices(), key=int),
        }


# --- exact strict feasibility ----------------------------------------------


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


def _generic_point(arr) -> tuple[Fraction, Fraction]:
    # every line meets the parabola y = x^2 + 1 at most twice, so some small
    # integer x gives a point off all lines
    k = 0
    while True:
        x, y = Fraction(k), Fraction(k * k + 1)
        if all(l.evaluate(x, y) != 0 for l in arr.lines):
            return (x, y)
        k += 1


def _mask(signs) -> int:
    """Bit k set iff the sign on line k is positive."""
    return sum(1 << k for k, s in enumerate(signs) if s > 0)


def _signs(mask: int, n: int) -> tuple[int, ...]:
    return tuple(1 if mask >> k & 1 else -1 for k in range(n))


def _facets(arr) -> list[tuple[int, int]]:
    """Every facet as (k, mask): an open segment of line k between consecutive
    crossings, with the cells of sign masks ``mask`` and ``mask | 1 << k``
    on its two sides.  Line k is walked along (-b, a) from beyond its first
    crossing, flipping at each exact crossing parameter the signs of the
    lines that meet it there; facets come out in ascending k.
    """
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
        facets.append((k, side))
        for t in sorted(crossings):
            side ^= crossings[t]
            facets.append((k, side))
    return facets


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All open full-dimensional cells, each with an interior witness point.

    Breadth-first search over the facets of the per-line sweep, starting at
    the cell of a generic seed point and crossing each cell's lines in
    ascending order.  Every other cell's witness is the Fourier-Motzkin
    point of its own sign vector, so it depends on the cell alone.
    """
    n = len(arr.lines)
    seed = _generic_point(arr)
    start = _mask(l.evaluate(*seed) for l in arr.lines)
    neighbors: dict[int, list[int]] = defaultdict(list)
    for k, mask in _facets(arr):
        neighbors[mask].append(mask | 1 << k)
        neighbors[mask | 1 << k].append(mask)
    found = {start: Region(_signs(start, n), seed)}
    order = [start]
    for mask in order:
        for other in neighbors[mask]:
            if other not in found:
                signs = _signs(other, n)
                found[other] = Region(signs, _feasible_point(_region_constraints(arr, signs)))
                order.append(other)
    return tuple(found.values())


def positive_token(k: int) -> str:
    return f"pos:{k + 1}"


def negative_token(k: int) -> str:
    return f"neg:{k + 1}"


def region_name(region: Region, ground: tuple[str, ...]) -> str:
    return set_name(region.positive_indices(), ground)


def _ground(arr) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(len(arr.lines)))


def region_adjacency(arr: Arrangement, regions: Iterable[Region]) -> LabeledGraph:
    """Region graph: one edge per facet, labeled by its line's token pair.

    A facet is skipped unless both of its sides are among ``regions``, so a
    subset of the cells gives its induced subgraph.  Labels are recorded in
    order of the positions of each edge's two regions in ``regions``.
    """
    regions = tuple(regions)
    ground = _ground(arr)
    names = [region_name(r, ground) for r in regions]
    index = {_mask(r.signs): i for i, r in enumerate(regions)}
    crossed = []
    for k, mask in _facets(arr):
        i, j = index.get(mask), index.get(mask | 1 << k)
        if i is not None and j is not None:
            crossed.append((min(i, j), max(i, j), k, names[i], names[j]))
    labels: dict[tuple[str, str], tuple[str, str]] = {}
    for _, _, k, minus, plus in sorted(crossed):
        e = (minus, plus) if minus < plus else (plus, minus)
        # label = (token along (e[0] -> e[1]), its reverse)
        up = (positive_token(k), negative_token(k))
        labels[e] = up if e[0] == minus else up[::-1]
    return LabeledGraph(tuple(names), tuple(labels), edge_labels=labels)


def region_family(arr: Arrangement, regions: Iterable[Region]) -> SetFamily:
    """The family of the regions' positive index sets over the line indices."""
    return SetFamily(_ground(arr), tuple(r.positive_indices() for r in regions))


def arrangement_medium(arr: Arrangement,
                       regions: tuple[Region, ...] | None = None,
                       graph: LabeledGraph | None = None) -> TokenSystem:
    """The medium of regions: pos:k / neg:k cross line k at shared facets, the
    edges of ``graph``, a ``region_adjacency`` graph whose labels name them."""
    if regions is None:
        regions = enumerate_regions(arr)
    if graph is None:
        graph = region_adjacency(arr, regions)
    ground = _ground(arr)
    names = tuple(region_name(r, ground) for r in regions)
    tokens: list[str] = []
    action: dict[str, dict[str, str]] = {}
    reverse: dict[str, str] = {}
    for k in range(len(arr.lines)):
        pos_id, neg_id = positive_token(k), negative_token(k)
        tokens += [pos_id, neg_id]
        action[pos_id] = {s: s for s in names}
        action[neg_id] = {s: s for s in names}
        reverse[pos_id] = neg_id
        reverse[neg_id] = pos_id
    for (u, v) in graph.edges:
        forward, backward = graph.edge_labels[(u, v)]
        action[forward][u] = v
        action[backward][v] = u
    return TokenSystem(names, tuple(tokens), action, reverse)


# --- mosaic windows ----------------------------------------------------------


def mosaic_window(kind: str, radius: int) -> Arrangement:
    """Finite sub-arrangement of a classical mosaic family meeting a disk.

    triangular: pencils y = t, y - x = t, 2y - x = t (integer offsets); the
    third normal is the sum of the first two, so every crossing of two
    pencils is a triple point and all cells are triangles, exactly the
    combinatorics of the three-directions triangle mosaic.  The region graph
    is the hexagonal lattice pattern.

    truncated-square: the square grid x = t, y = t plus both diagonal
    pencils x + y = t, x - y = t; cells are the four right triangles of each
    grid square and the region graph is the squares-and-octagons pattern.
    """
    if radius < 1:
        raise InputError("radius must be at least 1")
    if kind == "triangular":
        pencils = [(0, 1), (-1, 1), (-1, 2)]
    elif kind == "truncated-square":
        pencils = [(1, 0), (0, 1), (1, 1), (1, -1)]
    else:
        raise InputError(f"unknown mosaic kind {kind!r}; choose from {MOSAIC_KINDS}")
    lines = []
    for (a, b) in pencils:
        norm2 = a * a + b * b
        t = 0
        while t * t <= radius * radius * norm2:
            lines.append(Line.of(a, b, -t))
            if t:
                lines.append(Line.of(a, b, t))
            t += 1
    return Arrangement(tuple(lines))
