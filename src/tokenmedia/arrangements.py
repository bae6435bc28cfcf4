"""Regions of finite line arrangements in the plane, exact and on integers.

An integer literal is read by ``int``, any other by ``Fraction``.  Each line
is scaled once, by a positive factor, to integer coefficients.  One sweep per
arrangement meets each pair of lines once and keys their crossing by its
reduced integer coordinates; the crossings on a line cut it into facets, open
segments between two regions that differ in that line's sign alone, each with
an x-range of two ranks into the sorted distinct x-values.  Regions are found
by breadth-first search over the facets' sign masks, each with the witness
Fourier-Motzkin elimination would pick, read off in integers from the x-span
of its facets: Fractions are built only for the witnesses printed.  Each
region is built from its mask, whose one binary string gives its signs,
positive lines, name and printed signs; the region graph, one edge per facet,
finds regions by mask.  The token system of regions under line crossings is
always a medium; mosaic windows stand in for the locally finite families.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import compress, count
from typing import Iterable

from .cubes import LabeledGraph
from .errors import CapError, InputError, ParseError
from .families import SetFamily, set_name
from .tokens import TokenSystem

MOSAIC_KINDS = ("triangular", "truncated-square")
# The largest window tested.  Its printed dense action table grows as radius**3;
# the system stores only the moves, which grow as radius**2.
MOSAIC_MAX_RADIUS = 12


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

    @classmethod
    def of(cls, a, b, c) -> "Line":
        return cls(Fraction(a), Fraction(b), Fraction(c))


@dataclass(frozen=True)
class Arrangement:
    lines: tuple[Line, ...]

    def __post_init__(self):
        if not self.lines:
            raise InputError("an arrangement needs at least one line")
        rows, classes = [], set()
        for l in self.lines:  # scaled by the lcm of the denominators, a positive factor
            (an, ad), (bn, bd), (cn, cd) = [v.as_integer_ratio() for v in (l.a, l.b, l.c)]
            d = math.lcm(ad, bd, cd)
            a, b, c = an * (d // ad), bn * (d // bd), cn * (d // cd)
            g = math.gcd(a, b, c) * (1 if (a or b) > 0 else -1)
            rows.append((a, b, c))
            classes.add((a // g, b // g, c // g))  # its projective class: lead coefficient > 0
        if len(classes) != len(rows):
            raise InputError("duplicate lines (projectively equal triples)")
        object.__setattr__(self, "_rows", rows)  # each line's integer coefficients
        object.__setattr__(self, "_facets", None)  # the sweep, stored with its x table by _facets

    def to_json_dict(self) -> dict:
        return {"lines": [{"a": str(l.a), "b": str(l.b), "c": str(l.c)} for l in self.lines]}

    @classmethod
    def from_json_dict(cls, doc) -> "Arrangement":
        if not isinstance(doc, dict) or not isinstance(doc.get("lines"), list):
            raise ParseError("arrangement document needs a 'lines' list")
        lines = []
        for entry in doc["lines"]:
            try:
                lines.append(Line(*(_rational(str(entry[key])) for key in "abc")))
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:  # InputError too
                raise ParseError(f"bad line entry {entry!r}: {exc}") from None
        try:
            return cls(tuple(lines))
        except InputError as exc:
            raise ParseError(str(exc)) from None


def _rational(text: str) -> Fraction:
    """A rational literal the output can print (sys.get_int_max_str_digits): an integer by
    ``int``, else by ``Fraction``, a far-off exponent refused before its power is built."""
    try:
        return Fraction(int(text))
    except ValueError:  # no integer literal
        pass
    limit = sys.get_int_max_str_digits()
    if limit and abs(int(text.lower().partition("e")[2] or 0)) > 2 * limit:
        raise ParseError(f"{text[:40]!r}: exponent past the {limit}-digit limit")
    value = Fraction(text)
    str(value)  # raises ValueError past the digit limit
    return value


# a mask's binary digits, line 1 first, to bytes 0 and 1, to signed bytes -1 and +1, to signs
_BITS, _SIGN_BYTES, _SIGN_CHARS = (bytes.maketrans(b"01", to) for to in (b"\0\1", b"\xff\x01", b"-+"))


@dataclass(frozen=True)
class Region:
    """An open cell: its sign per line, a strictly interior rational witness,
    ``mask``, bit k set iff its sign on line k is positive, ``positive``, the
    1-based indices of those lines, and ``name``."""

    signs: tuple[int, ...]
    witness: tuple[Fraction, Fraction]

    def __post_init__(self):  # the signs given stay; the rest is read off their mask
        names = tuple(map(str, range(1, len(self.signs) + 1)))
        mask = sum(1 << k for k, s in enumerate(self.signs) if s > 0)
        self.__dict__.update(vars(_region(mask, names, self.witness)), signs=self.signs)

    def positive_indices(self) -> frozenset[str]:
        return frozenset(self.positive)

    def sign_string(self) -> str:
        return self._sign_string

    def to_json_dict(self) -> dict:
        return {
            "signs": self._sign_string,
            "witness": [str(self.witness[0]), str(self.witness[1])],
            "positive": list(self.positive),
        }


def _region(mask: int, names: tuple[str, ...], witness) -> Region:
    """The region of sign mask ``mask`` over the lines ``names``: its signs,
    ``positive``, ``name`` and printed signs are read off one binary string of the mask."""
    digits = bin(mask | 1 << len(names))[:2:-1].encode()  # line 1 first
    positive = tuple(compress(names, digits.translate(_BITS)))
    region = object.__new__(Region)
    region.__dict__.update(signs=tuple(memoryview(digits.translate(_SIGN_BYTES)).cast("b")),
                           witness=witness, mask=mask, positive=positive,
                           name="{" + ",".join(positive) + "}",
                           _sign_string=digits.translate(_SIGN_CHARS).decode())
    return region


def _generic_point(arr) -> tuple[int, int]:
    # each line meets the parabola y = x^2 + 1 at most twice, so a small integer x is off all lines
    x = next(x for x in count() if all(a * x + b * (x * x + 1) + c for a, b, c in arr._rows))
    return (x, x * x + 1)


def _facets(arr) -> list[tuple[int, int, int, int]]:
    """Every facet as (k, mask, lo, hi): an open segment of line k between
    consecutive crossings, with the cells of sign masks ``mask`` and
    ``mask | 1 << k`` on its two sides and xs[lo] <= x <= xs[hi] on its
    closure.  ``xs``, stored as ``arr._xs``, holds the distinct x-values of
    crossings and vertical lines as reduced pairs (n, d > 0), sorted once,
    between None at rank 0 and at the last rank for the unbounded ends.
    Each pair of rows is met once; its crossing is keyed by its reduced
    integer coordinates, so concurrent lines share it.  Line k is walked
    along (-b, a) (x falling if b > 0, else rising; y rising iff a > 0 if
    b == 0), flipping at each point the lines through it.  Facets come out
    in ascending k; the sweep runs once per arrangement and is stored on it."""
    if arr._facets is not None:
        return arr._facets

    def reduced(n, d):  # n / d as (n, d) in lowest terms, d > 0
        g = math.gcd(n, d) * (1 if d > 0 else -1)
        return (n // g, d // g)

    by_value = cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1])  # such pairs, by n / d
    rows = arr._rows
    side = [0] * len(rows)  # per line: the lines with its far negative end on their positive side
    through = [{} for _ in rows]  # per line: point -> the other lines through it
    points: dict[tuple[int, int, int], int] = {}
    for i, (ai, bi, ci) in enumerate(rows):
        for j in range(i + 1, len(rows)):
            aj, bj, cj = rows[j]
            det = ai * bj - aj * bi
            if det:
                side[i] |= (det < 0) << j
                side[j] |= (det > 0) << i
                xn, yn = bi * cj - bj * ci, aj * ci - ai * cj
                g = math.gcd(xn, yn, det) * (1 if det > 0 else -1)
                p = points.setdefault((xn // g, yn // g, det // g), len(points))
                through[i][p] = through[i].get(p, 0) | 1 << j
                through[j][p] = through[j].get(p, 0) | 1 << i
            else:
                # (aj, bj) = (lj / li) * (ai, bi) over the lead coefficients l
                li, lj = bi or ai, bj or aj
                offset = cj * li - lj * ci
                side[i] |= (offset * li > 0) << j
                side[j] |= (offset * lj < 0) << i
    keys = list(points)
    xs = [reduced(xn, d) for xn, _, d in keys]
    vertical = {k: reduced(-c, a) for k, (a, b, c) in enumerate(rows) if not b}  # x = -c/a
    table = [None, *sorted({*xs, *vertical.values()}, key=by_value), None]
    rank = {x: i for i, x in enumerate(table[1:-1], 1)}
    xr, top = [rank[x] for x in xs], len(table) - 1
    facets = []
    for k, (a, b, c) in enumerate(rows):
        crossed = through[k]
        if b:
            order = sorted(crossed, key=xr.__getitem__, reverse=b > 0)
            ends = [xr[p] for p in order]
            lows, highs = (ends + [0], [top] + ends) if b > 0 else ([0] + ends, ends + [top])
        else:  # ordered by y; every facet has x = -c/a
            order = sorted(crossed, key=lambda p: by_value(keys[p][1:]), reverse=a < 0)
            lows = highs = [rank[vertical[k]]] * (len(order) + 1)
        mask = side[k]
        facets.append((k, mask, lows[0], highs[0]))
        for i, p in enumerate(order, 1):
            mask ^= crossed[p]
            facets.append((k, mask, lows[i], highs[i]))
    object.__setattr__(arr, "_xs", table)
    object.__setattr__(arr, "_facets", facets)
    return facets


def _pick(lo, hi) -> tuple[int, int]:
    """The Fourier-Motzkin choice of a point of the open interval (lo, hi) of
    pairs (n, d > 0) for n / d, None if unbounded: the midpoint, lo + 1,
    hi - 1 or 0, as such a pair, not reduced."""
    if lo is None:
        return (0, 1) if hi is None else (hi[0] - hi[1], hi[1])
    return (lo[0] + lo[1], lo[1]) if hi is None else (lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1])


def _witness(arr, mask, lo, hi, lines, rows) -> tuple[Fraction, Fraction]:
    """The Fourier-Motzkin witness of the cell with this sign mask and x-extent
    (xs[lo], xs[hi]) in ``arr._xs``: x inside it, then y inside the cell's
    y-range at x, found in integers over the rows (a, b, c, up) of the facet
    lines in the mask ``lines``, whose half-planes alone cut it out.  The two
    coordinates returned are the only Fractions built."""
    xs = arr._xs
    if lo == hi:
        # a half-plane whose one facet line is vertical: its open side is that line's sign
        k = lines.bit_length() - 1
        lo, hi = (lo, len(xs) - 1) if (mask >> k & 1) == (arr._rows[k][0] > 0) else (0, hi)
    p, q = _pick(xs[lo], xs[hi])
    below = above = None  # nearest lines under and over the cell at x, as (n, b): y = n / (b*q)
    while lines:
        k = (lines & -lines).bit_length() - 1
        lines ^= 1 << k
        if rows[k] is None:
            continue
        a, b, c, up = rows[k]
        n = -(a * p + c * q)
        if (mask >> k & 1) == up:
            if below is None or n * below[1] > below[0] * b:
                below = (n, b)
        elif above is None or n * above[1] < above[0] * b:
            above = (n, b)
    y_lo = None if below is None else (below[0], below[1] * q)
    y_hi = None if above is None else (above[0], above[1] * q)
    return (Fraction(p, q), Fraction(*_pick(y_lo, y_hi)))


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All open full-dimensional cells, each with an interior witness point.

    One pass over the facets of the per-line sweep folds each facet's x-range,
    two ranks, into its two cells' x-extents and their masks of facet lines.
    Breadth-first search then starts at the cell of a generic seed point and
    crosses each cell's facet lines in ascending order.  Every other
    cell's witness is the point that Fourier-Motzkin elimination picks from
    its sign vector, read off its x-extent and one pass over its facet
    lines, so it depends on the cell alone.  Each region is built from its mask.
    """
    names = _ground(arr)
    x, y = _generic_point(arr)
    start = sum(1 << k for k, (a, b, c) in enumerate(arr._rows) if a * x + b * y + c > 0)
    extent: dict[int, list] = {}  # per cell: the least and greatest rank, and its facet lines
    for k, mask, lo, hi in _facets(arr):
        bit = 1 << k
        for cell in (mask, mask | bit):
            span = extent.setdefault(cell, [lo, hi, 0])
            if lo < span[0]:
                span[0] = lo
            if hi > span[1]:
                span[1] = hi
            span[2] |= bit
    # each line as (a, b, c, up), flipped to b > 0, or None if vertical; up: its positive side is above
    rows = [None if not b else (a, b, c, True) if b > 0 else (-a, -b, -c, False)
            for a, b, c in arr._rows]
    order, seen = [start], {start}
    for mask in order:  # a cell's neighbours across its facet lines, in ascending order
        lines = extent[mask][2]
        while lines:
            other = mask ^ (lines & -lines)
            lines &= lines - 1
            if other not in seen:
                seen.add(other)
                order.append(other)
    regions = [_region(start, names, (Fraction(x), Fraction(y)))]
    regions += [_region(mask, names, _witness(arr, mask, *extent[mask], rows)) for mask in order[1:]]
    return tuple(regions)


def positive_token(k: int) -> str:
    return f"pos:{k + 1}"


def negative_token(k: int) -> str:
    return f"neg:{k + 1}"


def region_name(region: Region, ground: tuple[str, ...]) -> str:
    return set_name(region.positive, ground)


def _ground(arr) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(len(arr.lines)))


def region_adjacency(arr: Arrangement, regions: Iterable[Region]) -> LabeledGraph:
    """Region graph: one edge per facet, labeled by its line's token pair.

    A facet is skipped unless both of its sides are among ``regions``, so a
    subset of the cells gives its induced subgraph.  Labels are recorded in
    order of the positions of each edge's two regions in ``regions``.
    """
    regions = tuple(regions)
    names = [r.name for r in regions]
    forward = [(positive_token(k), negative_token(k)) for k in range(len(arr.lines))]
    backward = [pair[::-1] for pair in forward]
    index = {r.mask: i for i, r in enumerate(regions)}
    n = len(regions)
    crossed = {}  # per facet, by the positions of its sides, low first: its edge and label
    for k, mask, _, _ in _facets(arr):
        i, j = index.get(mask), index.get(mask | 1 << k)
        if i is not None and j is not None:
            minus, plus = names[i], names[j]
            # label = (token along (e[0] -> e[1]), its reverse)
            crossed[i * n + j if i < j else j * n + i] = (
                ((minus, plus), forward[k]) if minus < plus else ((plus, minus), backward[k]))
    labels = dict(map(crossed.__getitem__, sorted(crossed)))
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
    names = tuple(r.name for r in regions)
    pos: dict[str, dict[str, str]] = {positive_token(k): {} for k in range(len(arr.lines))}
    for (u, v), (forward, backward) in graph.edge_labels.items():
        if forward in pos:
            pos[forward][u] = v
        else:
            pos[backward][v] = u
    return TokenSystem.from_pairs(names, ((t, negative_token(k), ms)
                                          for k, (t, ms) in enumerate(pos.items())))


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
    A radius above ``MOSAIC_MAX_RADIUS`` raises CapError before any line is built.
    """
    if radius < 1:
        raise InputError("radius must be at least 1")
    if radius > MOSAIC_MAX_RADIUS:
        raise CapError(f"mosaic windows are capped at radius {MOSAIC_MAX_RADIUS}")
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
