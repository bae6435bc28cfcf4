"""Regions of finite line arrangements in the plane, exact and on integers.

An integer literal is read by ``int``, any other by ``Fraction``; each line is
scaled once to integer coefficients.  One sweep cuts every line into facets at
its crossings.  ``_cells`` finds each cell's sign mask by breadth-first search
over the facets, with the witness Fourier-Motzkin elimination would pick, in
integers; ``_crossings``, one pass over the facets, gives the region graph's
edges and the medium's moves.  The CLI prints from these integers, and
``enumerate_regions``, ``region_adjacency`` and ``arrangement_medium`` wrap them.
The token system of regions under line crossings is always a medium; mosaic
windows stand in for the locally finite families.
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
from .families import _BITS, SetFamily
from .tokens import TokenSystem

# each mosaic kind's pencils of lines a*x + b*y = t, by their normals (a, b)
_PENCILS = {"triangular": [(0, 1), (-1, 1), (-1, 2)], "truncated-square": [(1, 0), (0, 1), (1, 1), (1, -1)]}
MOSAIC_KINDS = tuple(_PENCILS)
# The largest window tested.  The system stores only the moves, which grow as
# radius**2, and the CLI prints them; a dense action table would grow as radius**3.
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


# a region's printed signs to signed bytes -1 and +1; a mask's binary digits to signs
_SIGN_BYTES, _SIGN_CHARS = bytes.maketrans(b"-+", b"\xff\x01"), bytes.maketrans(b"01", b"-+")


@dataclass(frozen=True)
class Region:
    """An open cell: its sign per line, a strictly interior rational witness,
    ``mask``, bit k set iff its sign on line k is positive, ``positive``, the
    1-based indices of those lines, and ``name``, laid out by ``_cell_documents``."""

    signs: tuple[int, ...]
    witness: tuple[Fraction, Fraction]

    def __post_init__(self):  # the signs given stay; the rest is laid out as a one-cell list
        mask = sum(1 << k for k, s in enumerate(self.signs) if s > 0)
        ground = tuple(map(str, range(1, len(self.signs) + 1)))
        (name,), (doc,) = _cell_documents(ground, [mask], [[v.as_integer_ratio() for v in self.witness]])
        self.__dict__.update(mask=mask, positive=tuple(doc["positive"]), name=name, _doc=doc)

    def to_json_dict(self) -> dict:
        return {**self._doc, "witness": list(self._doc["witness"]), "positive": list(self.positive)}


def _generic_point(arr) -> tuple[int, int]:
    # each line meets the parabola y = x^2 + 1 at most twice, so a small integer x is off all lines
    x = next(x for x in count() if all(a * x + b * (x * x + 1) + c for a, b, c in arr._rows))
    return (x, x * x + 1)


def _facets(arr) -> list[tuple[int, int, int, int]]:
    """Every facet as (k, mask, lo, hi), in ascending k: an open segment of
    line k between consecutive crossings, with the cells of masks ``mask`` and
    ``mask | 1 << k`` on its sides and xs[lo] <= x <= xs[hi] on its closure.
    ``arr._xs`` holds the distinct x-values of crossings and vertical lines as
    reduced pairs (n, d > 0), sorted, between None at both ends.  Each pair of
    rows is met once, its crossing keyed by its reduced integer coordinates, so
    concurrent lines share it; line k is walked along (-b, a) (x falling if b > 0,
    else rising; y rising iff a > 0 if b == 0), flipping at each point the lines
    through it.  The sweep runs once per arrangement and is stored on it."""
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


def _witness(arr, mask, lo, hi, lines, rows) -> tuple[tuple[int, int], tuple[int, int]]:
    """The Fourier-Motzkin witness of the cell with this sign mask and x-extent
    (xs[lo], xs[hi]) in ``arr._xs``: x inside it, then y inside the cell's y-range
    at x, over the rows (a, b, c, up) of the facet lines in the mask ``lines``,
    whose half-planes alone cut it out; each a pair (n, d > 0), not reduced."""
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
    return ((p, q), _pick(y_lo, y_hi))


def _cells(arr: Arrangement) -> tuple[list[int], list[tuple]]:
    """Every open cell's sign mask, in breadth-first order from the cell of a
    generic point, crossing each cell's facet lines in ascending order, and its
    witness (x, y), each coordinate a pair (n, d > 0), not reduced: for every
    other cell the point Fourier-Motzkin elimination picks, read off the x-extent
    and facet lines that one pass over the facets folds for it."""
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
    witnesses = [((x, 1), (y, 1))]
    witnesses += [_witness(arr, mask, *extent[mask], rows) for mask in order[1:]]
    return order, witnesses


def enumerate_regions(arr: Arrangement) -> tuple[Region, ...]:
    """All open cells with interior witnesses: ``_cells``' cells, each built from
    the name and document ``_cell_documents`` lays out for it."""
    masks, witnesses = _cells(arr)
    names, docs = _cell_documents(_ground(arr), masks, witnesses)
    regions = []
    for mask, (x, y), name, doc in zip(masks, witnesses, names, docs):
        region = object.__new__(Region)
        signs = tuple(memoryview(doc["signs"].encode().translate(_SIGN_BYTES)).cast("b"))
        region.__dict__.update(signs=signs, witness=(Fraction(*x), Fraction(*y)), mask=mask,
                               positive=tuple(doc["positive"]), name=name, _doc=doc)
        regions.append(region)
    return tuple(regions)


def _ratio(n: int, d: int) -> str:
    """n / d (d > 0) as ``str(Fraction(n, d))`` prints it; past the digit limit, ValueError."""
    g = math.gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


def _cell_documents(ground: tuple[str, ...], masks, witnesses) -> tuple[tuple[str, ...], list[dict]]:
    """The names and documents of the cells over the lines ``ground``, the one
    layout of a region: each from its mask's one binary string and its int witness."""
    top = 1 << len(ground)
    names, docs = [], []
    for mask, (x, y) in zip(masks, witnesses):
        digits = bin(mask | top)[:2:-1].encode()  # line 1 first
        positive = list(compress(ground, digits.translate(_BITS)))
        names.append("{" + ",".join(positive) + "}")
        docs.append({"signs": digits.translate(_SIGN_CHARS).decode(),
                     "witness": [_ratio(*x), _ratio(*y)], "positive": positive})
    return tuple(names), docs


def positive_token(k: int) -> str:
    return f"pos:{k + 1}"


def negative_token(k: int) -> str:
    return f"neg:{k + 1}"


def _ground(arr) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(len(arr.lines)))


def _crossings(arr: Arrangement, masks, names) -> tuple[dict, list[tuple]]:
    """One pass over the facets with both sides among the cells of masks ``masks``,
    named ``names``: each keyed by its sides' positions, low * R + high, with its
    edge (two names in order) and label (the token along it and its reverse), and
    per line k the ``TokenSystem.from_pairs`` triple (pos:k, neg:k, pos:k's moves)."""
    index = dict(zip(masks, count()))
    n = len(masks)
    pairs = [(positive_token(k), negative_token(k), {}) for k in range(len(arr.lines))]
    forward = [pair[:2] for pair in pairs]
    backward = [pair[1::-1] for pair in pairs]
    crossed = {}
    for k, mask, _, _ in _facets(arr):
        i, j = index.get(mask), index.get(mask | 1 << k)
        if i is not None and j is not None:
            minus, plus = names[i], names[j]
            pairs[k][2][minus] = plus
            crossed[i * n + j if i < j else j * n + i] = (
                ((minus, plus), forward[k]) if minus < plus else ((plus, minus), backward[k]))
    return crossed, pairs


def region_adjacency(arr: Arrangement, regions: Iterable[Region]) -> LabeledGraph:
    """Region graph: one edge per facet with both sides among ``regions`` (so a
    subset of the cells gives its induced subgraph), labeled by its line's token
    pair; labels in order of the positions of each edge's two regions."""
    regions = tuple(regions)
    names = tuple(r.name for r in regions)
    crossed, _ = _crossings(arr, [r.mask for r in regions], names)
    labels = dict(map(crossed.__getitem__, sorted(crossed)))
    return LabeledGraph(names, tuple(labels), edge_labels=labels)


def region_family(arr: Arrangement, regions: Iterable[Region]) -> SetFamily:
    """The family of the regions' positive index sets over the line indices."""
    return SetFamily(_ground(arr), tuple(frozenset(r.positive) for r in regions))


def arrangement_medium(arr: Arrangement,
                       regions: tuple[Region, ...] | None = None,
                       graph: LabeledGraph | None = None) -> TokenSystem:
    """The medium of regions: pos:k / neg:k cross line k at the facets between two of
    ``regions``, read off its own ``_crossings`` pass over the facets; ``graph`` is not read."""
    if regions is None:
        regions = enumerate_regions(arr)
    names = tuple(r.name for r in regions)
    return TokenSystem.from_pairs(names, _crossings(arr, [r.mask for r in regions], names)[1])


# --- mosaic windows ----------------------------------------------------------


def mosaic_window(kind: str, radius: int) -> Arrangement:
    """Finite sub-arrangement of a classical mosaic family meeting a disk.

    triangular: pencils y = t, y - x = t, 2y - x = t (integer offsets), every
    crossing a triple point and every cell a triangle; the region graph is the
    hexagonal lattice.  truncated-square: the grid x = t, y = t and both
    diagonal pencils x +- y = t, four right triangles per grid square; the
    region graph is the squares-and-octagons pattern.  A radius above
    ``MOSAIC_MAX_RADIUS`` raises CapError before any line is built."""
    if kind not in _PENCILS:
        raise InputError(f"unknown mosaic kind {kind!r}; choose from {MOSAIC_KINDS}")
    if radius < 1:
        raise InputError("radius must be at least 1")
    if radius > MOSAIC_MAX_RADIUS:
        raise CapError(f"mosaic windows are capped at radius {MOSAIC_MAX_RADIUS}")
    lines = []
    for (a, b) in _PENCILS[kind]:
        for t in range(math.isqrt(radius * radius * (a * a + b * b)) + 1):  # t*t <= r*r*|(a, b)|^2
            lines.append(Line.of(a, b, -t))
            if t:
                lines.append(Line.of(a, b, t))
    return Arrangement(tuple(lines))
