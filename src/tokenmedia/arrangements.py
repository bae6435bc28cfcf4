"""Regions of finite line arrangements in the plane, with exact rationals.

Every comparison is exact.  One sweep per arrangement sorts, per line, the
rational parameters at which the other lines cross it; each open segment
between consecutive crossings is a facet whose two sides are regions
differing in that line's sign alone.  Regions are found by breadth-first
search over these facets, each with the witness that Fourier-Motzkin
elimination would pick, read off the x-span of its facets; the region graph
has one edge per facet.  The token system of regions under line crossings
is always a medium; mosaic windows stand in for the locally finite families.
"""

from __future__ import annotations

import math
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
        object.__setattr__(self, "_facets", None)  # the sweep, stored by _facets

    def to_json_dict(self) -> dict:
        return {"lines": [{"a": str(l.a), "b": str(l.b), "c": str(l.c)} for l in self.lines]}

    @classmethod
    def from_json_dict(cls, doc) -> "Arrangement":
        if not isinstance(doc, dict) or not isinstance(doc.get("lines"), list):
            raise ParseError("arrangement document needs a 'lines' list")
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


def _facets(arr) -> list[tuple[int, int, Fraction | None, Fraction | None]]:
    """Every facet as (k, mask, lo, hi): an open segment of line k between
    consecutive crossings, with the cells of sign masks ``mask`` and
    ``mask | 1 << k`` on its two sides and lo <= x <= hi on its closure (None
    if unbounded).  Line k is walked along (-b, a) from beyond its first
    crossing, flipping at each exact crossing parameter the signs of the
    lines that meet it there; facets come out in ascending k.  The sweep
    runs once per arrangement and is stored on it."""
    if arr._facets is not None:
        return arr._facets
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
    object.__setattr__(arr, "_facets", facets)
    return facets


def _inside(lo, hi) -> Fraction:
    """The Fourier-Motzkin choice of a point of the open interval (lo, hi),
    where None is an unbounded end: the midpoint, lo + 1, hi - 1 or 0."""
    if lo is None:
        return Fraction(0) if hi is None else hi - 1
    return lo + 1 if hi is None else (lo + hi) / 2


def _witness(arr, signs, lo, hi, rows) -> tuple[Fraction, Fraction]:
    """The Fourier-Motzkin witness of the cell with these signs and x-extent
    (lo, hi): x inside the extent, then y inside the cell's y-range at x,
    found in integers over the non-vertical lines of ``_integral_rows``."""
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


def _integral_rows(arr) -> list[tuple[int, int, int, int, bool]]:
    """Each non-vertical line k as (k, a, b, c, up): its coefficients scaled
    to integers with b > 0, and whether its positive side lies above it."""
    rows = []
    for k, l in enumerate(arr.lines):
        if l.b:
            d = math.lcm(l.a.denominator, l.b.denominator, l.c.denominator) * (1 if l.b > 0 else -1)
            rows.append((k, int(l.a * d), int(l.b * d), int(l.c * d), l.b > 0))
    return rows


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All open full-dimensional cells, each with an interior witness point.

    Breadth-first search over the facets of the per-line sweep, starting at
    the cell of a generic seed point and crossing each cell's lines in
    ascending order.  The same pass folds each facet's x-range into its two
    cells' exact x-extents.  Every other cell's witness is the point that
    Fourier-Motzkin elimination picks from its sign vector, read off its
    x-extent and one pass over the lines, so it depends on the cell alone.
    """
    n = len(arr.lines)
    seed = _generic_point(arr)
    start = _mask(l.evaluate(*seed) for l in arr.lines)
    neighbors: dict[int, list[int]] = defaultdict(list)
    extent: dict[int, list] = {}
    for k, mask, lo, hi in _facets(arr):
        for cell, other in ((mask, mask | 1 << k), (mask | 1 << k, mask)):
            neighbors[cell].append(other)
            span = extent.setdefault(cell, [lo, hi])
            if span[0] is not None and (lo is None or lo < span[0]):
                span[0] = lo
            if span[1] is not None and (hi is None or hi > span[1]):
                span[1] = hi
    rows = _integral_rows(arr)
    found = {start: Region(_signs(start, n), seed)}
    order = [start]
    for mask in order:
        for other in neighbors[mask]:
            if other not in found:
                signs = _signs(other, n)
                found[other] = Region(signs, _witness(arr, signs, *extent[other], rows))
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
    for k, mask, _, _ in _facets(arr):
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
