"""Lazy universal covering tree of a finite graph.

Cover vertices are non-backtracking half-edge paths from a root vertex;
nothing global is ever materialised.  The module enumerates spherical arcs,
spheres, tubes and horocycle subsets as layers of half-edge paths held as
parent-pointer levels, one level per radius (PathLayer), and averages lifted
functions over them both by brute-force enumeration and by a non-backtracking
transfer operator over half-edges (exact integer sizes, float path
distributions).  The object BFS that the layers are tested against is
tests/reference_bfs.py.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
from collections.abc import Set
from dataclasses import dataclass, field

import numpy as np

from . import graph_core
from .errors import (
    CoverError,
    DisconnectedSubtreeError,
    EmptySetError,
    EmptySubtreeError,
    GraphFileError,
    InvalidGeodesicError,
    SizeOutOfRangeError,
    SupportMismatchError,
)

VERTICES = "vertices"
EDGES = "edges"


@dataclass(frozen=True)
class CoverVertex:
    """A vertex of the covering tree: root vertex plus a non-backtracking path.

    Equality and hashing use the (root, path) encoding only; ``vertex`` caches
    the projection to the base graph (head of the last half-edge, or the root).
    """

    root: int
    path: tuple[int, ...]
    vertex: int = field(compare=False)

    @property
    def depth(self):
        return len(self.path)


@dataclass(frozen=True)
class CoverEdge:
    """A tree edge, represented by its endpoint farther from the root.

    The last half-edge of that endpoint identifies the projected base edge.
    """

    deeper: CoverVertex
    edge: int = field(compare=False)


def cover_root(g, v):
    return CoverVertex(v, (), v)


def check_id(what, i, n):
    """Raise CoverError unless the ``what`` id ``i`` lies in 0 .. n - 1."""
    if not 0 <= i < n:
        raise CoverError(f"{what} {i} out of range 0 .. {n - 1}")


def _check_radius(r):
    if r < 0:
        raise ValueError("radius must be >= 0")


def cover_vertex(g, root, path):
    """Validated CoverVertex from a half-edge path starting at ``root``."""
    check_id("root vertex", root, g.vertex_count)
    path = tuple(path)
    at = root
    prev = None
    for h in path:
        if not (0 <= h < g.half_edge_count) or g.tail(h) != at:
            raise CoverError(f"path does not continue at half-edge {h}")
        if prev is not None and h == g.twin(prev):
            raise CoverError(f"path backtracks at half-edge {h}")
        at = g.head(h)
        prev = h
    return CoverVertex(root, path, at)


def cover_parent(g, cv):
    """The tree neighbour one step closer to the root, or None at the root."""
    if not cv.path:
        return None
    path = cv.path[:-1]
    vertex = g.head(path[-1]) if path else cv.root
    return CoverVertex(cv.root, path, vertex)


def _steps(g, root, path):
    """Last half-edges of the children of the cover vertex ``path``."""
    return g.continuations(path[-1]) if path else g.out(root)


def cover_children(g, cv):
    """Tree neighbours one step farther from the root."""
    return [CoverVertex(cv.root, cv.path + (h,), g.head(h)) for h in _steps(g, cv.root, cv.path)]


# --- arcs and spheres (root coordinates) ---
#
# A layer of an arc, sphere, tube or horocycle piece holds half-edge paths from
# one root, one row per element, in blocks of one depth each.  A block is a
# prefix matrix of whole rows plus a tuple of levels below it; a level is a
# pair: the rows' parents, and each row's last half-edge.  The parents are the
# fan-out c where every row in the level above has c continuations (row i's
# parent is row i // c), else the index of each row's parent row.  Layer r + 1
# of an arc is layer r with one more level, which lists each parent's
# continuations in order, so no path is ever copied and the (N, depth) rows are
# built only when something reads them.  The continuations come from this
# module's own table, not from the transfer operator, and no rows are ever
# merged, so enumeration stays an independent oracle for the transfer.

class _ArcTable:
    """Continuations of every half-edge as rows padded with -1, with its fan-out
    (``uniform`` if all share one), head vertex and edge id."""

    __slots__ = ("padded", "fanout", "uniform", "heads", "edges")

    def __init__(self, g):
        steps = list(map(g.continuations, range(g.half_edge_count)))
        self.fanout = np.fromiter(map(len, steps), np.intp, len(steps))
        width = int(self.fanout.max(initial=0))
        self.padded = np.full((len(steps), width), -1, dtype=np.intp)
        self.padded[np.arange(width) < self.fanout[:, None]] = np.fromiter(
            itertools.chain.from_iterable(steps), np.intp)
        self.uniform = width if (self.fanout == width).all() else None
        self.heads = np.array(g.heads, dtype=np.intp)
        self.edges = np.fromiter(map(g.edge_of, range(len(steps))), np.intp, len(steps))

    def extend(self, last):
        """The level below paths ending in ``last``, each parent's continuations in
        order: one gather stored with c if every parent has fan-out c, else masked."""
        c = self.uniform
        if c is None:
            fan = self.fanout[last]
            c = int(fan[0]) if len(fan) else 0
            if (fan != c).any():
                cont = self.padded.take(last, axis=0)
                keep = cont >= 0
                return keep.nonzero()[0], cont[keep]
        return c, self.padded[:, :c].take(last, axis=0).ravel()

    def descend(self, block, k):
        """The block k half-edges longer: every descendant k levels down."""
        prefix, levels = block
        for _ in range(k):
            levels += (self.extend(_last(prefix, levels)),)
        return prefix, levels


def _arc_table(g):
    """The graph's arc table, built on first use and kept on the graph."""
    if g._arc_table is None:
        g._arc_table = _ArcTable(g)
    return g._arc_table


def _last(prefix, levels):
    """The last half-edge of every row of a block of depth >= 1."""
    return levels[-1][1] if levels else prefix[:, -1]


def _size(block):
    prefix, levels = block
    return len(levels[-1][1]) if levels else len(prefix)


def _materialise(block):
    """The (N, depth) rows of a block, read-only: each level's last half-edges
    read through the parents of the levels below it, i // c for a fan-out c."""
    prefix, levels = block
    rows = np.empty((_size(block), prefix.shape[1] + len(levels)), dtype=np.intp)
    at = np.arange(len(rows))
    for j, (parent, last) in enumerate(reversed(levels), 1):
        rows[:, -j] = last[at]
        at = at // parent if isinstance(parent, int) else parent[at]
    rows[:, :prefix.shape[1]] = prefix[at]
    rows.setflags(write=False)
    return rows


class PathLayer(Set):
    """Read-only set of cover vertices, or of the tree edges above them, held
    in ``parts``: blocks of half-edge paths from one root, one depth per
    block, each a prefix matrix of rows plus a tuple of (parents: a fan-out or
    an index array, last half-edge) levels below it; a plain (N, depth) matrix
    is a block with no levels.  An arc has one block; a sphere has one per arc;
    a tube or horocycle piece has one per depth its branches start at.

    ``len`` and ``ids()`` read only the last level.  ``blocks`` are the full
    (N, depth) ``intp`` rows, built on first use, kept and read-only.
    Iterating builds the CoverVertex (or CoverEdge) objects one at a time;
    ``in``, ``==`` and ``<=`` against frozensets of them work through the Set
    mixins, and set operators return frozensets.  ``support`` says which kind
    of element the rows stand for.
    """

    __slots__ = ("g", "root", "parts", "support", "_blocks", "_rows")

    def __init__(self, g, root, blocks, support):
        self.parts = tuple([(b, ()) if isinstance(b, np.ndarray) else b for b in blocks])
        self.g = g
        self.root = root
        self.support = support
        self._blocks = self._rows = None

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    @property
    def blocks(self):
        if self._blocks is None:
            self._blocks = tuple(map(_materialise, self.parts))
        return self._blocks

    def __len__(self):
        parts = self.parts
        return _size(parts[0]) if len(parts) == 1 else sum(map(_size, parts))

    def __iter__(self):
        g, root = self.g, self.root
        for block in self.blocks:
            for row in block.tolist():
                path = tuple(row)
                cv = CoverVertex(root, path, g.head(path[-1]) if path else root)
                yield cv if self.support == VERTICES else CoverEdge(cv, g.edge_of(path[-1]))

    def __contains__(self, item):
        kind = CoverVertex if self.support == VERTICES else CoverEdge
        if type(item) is not kind:
            return False
        cv = item if kind is CoverVertex else item.deeper
        if self._rows is None:
            self._rows = frozenset(tuple(row) for block in self.blocks for row in block.tolist())
        return cv.root == self.root and cv.path in self._rows

    def __repr__(self):
        depths = [prefix.shape[1] + len(levels) for prefix, levels in self.parts]
        return f"PathLayer({self.support}, root={self.root}, depths={depths}, n={len(self)})"

    def ids(self):
        """The base vertex (or edge) every element projects to."""
        table = _arc_table(self.g)
        at = table.heads if self.support == VERTICES else table.edges
        if len(self.parts) == 1:  # an arc or a root: nothing to concatenate
            return _ids(at, self.root, self.parts[0])
        return np.concatenate([np.empty(0, np.intp)] + [_ids(at, self.root, b) for b in self.parts])


def _ids(at, root, block):
    """``at`` of every row's last half-edge; the root for a block of depth 0."""
    prefix, levels = block
    return at[_last(prefix, levels)] if levels or prefix.shape[1] else np.full(len(prefix), root)


def _block(paths, depth):
    """The paths, all of ``depth`` half-edges, as one block."""
    return np.array(paths, dtype=np.intp).reshape(len(paths), depth)


def _root_layer(g, v):
    return PathLayer(g, v, [_block([()], 0)], VERTICES)


def _arc_layers(g, base, n, support):
    """The arc layers of 1 .. n half-edges at ``base``, each the last plus one level."""
    tail, table = g.tail(base), _arc_table(g)
    block = (np.array([[base]], dtype=np.intp), ())
    for k in range(n):
        block = table.descend(block, 1) if k else block
        yield PathLayer(g, tail, [block], support)


def arc_vertex_layers(g, base, max_radius):
    """Yield the vertex arcs A_0 .. A_R of the directed edge ``base`` as path layers."""
    check_id("half-edge", base, g.half_edge_count)
    _check_radius(max_radius)
    yield _root_layer(g, g.tail(base))
    yield from _arc_layers(g, base, max_radius, VERTICES)


def _layer_at(layers, r):
    """Item ``r`` of an iterator over radii 0, 1, .., r."""
    _check_radius(r)
    return next(itertools.islice(layers, r, None))


def arc_vertices(g, base, r):
    """The arc A_r(base): cover vertices at distance r from the tail, through ``base``."""
    return _layer_at(arc_vertex_layers(g, base, r), r)


def arc_edge_layers(g, base, max_radius):
    """Yield the edge arcs A'_0 .. A'_R of ``base``.

    The edges of A'_r have their nearer endpoint at distance r from the tail
    on the branch through ``base``, so their deeper endpoints are exactly the
    vertex arc of radius r + 1: the same blocks, read as edges.
    """
    check_id("half-edge", base, g.half_edge_count)
    _check_radius(max_radius)
    yield from _arc_layers(g, base, max_radius + 1, EDGES)


def arc_edges(g, base, r):
    return _layer_at(arc_edge_layers(g, base, r), r)


def _spheres(g, v0, n, support):
    """The arc layers of 1 .. n half-edges at v0's half-edges, stacked into one per length."""
    arcs = [_arc_layers(g, h, n, support) for h in g.out(v0)]
    for _ in range(n):  # not zip: a vertex with no half-edges still has n empty layers
        yield PathLayer(g, v0, [part for arc in arcs for part in next(arc).parts], support)


def sphere_vertex_layers(g, v0, max_radius):
    """Yield the spheres S_0 .. S_R(v0), each the d(v0) arcs of its radius stacked."""
    check_id("root vertex", v0, g.vertex_count)
    _check_radius(max_radius)
    yield _root_layer(g, v0)
    yield from _spheres(g, v0, max_radius, VERTICES)


def sphere_vertices(g, v0, r):
    """The sphere S_r(v0)."""
    return _layer_at(sphere_vertex_layers(g, v0, r), r)


def sphere_edge_layers(g, v0, max_radius):
    """Yield the edge spheres S'_0 .. S'_R(v0), each the d(v0) edge arcs of its radius stacked."""
    check_id("root vertex", v0, g.vertex_count)
    _check_radius(max_radius)
    yield from _spheres(g, v0, max_radius + 1, EDGES)


def sphere_edges(g, v0, r):
    """Tree edges whose nearer endpoint lies at distance r from the root."""
    return _layer_at(sphere_edge_layers(g, v0, r), r)


# --- tubes around a finite connected subtree ---

def validate_subtree(g, members):
    """Check that ``members`` is a nonempty connected subtree sharing one root.

    Returns (member set, top vertex), where the top vertex is the unique
    member of minimal depth.  The members are rebuilt from their (root, path)
    encoding, so a wrong cached ``vertex`` does not survive validation.
    """
    members = list(members)
    if not members:
        raise EmptySubtreeError("subtree has no vertices")
    root = members[0].root
    seen = set()
    for cv in members:
        if cv.root != root:
            raise DisconnectedSubtreeError("subtree members use different roots")
        seen.add(cover_vertex(g, cv.root, cv.path))
    if len(seen) != len(members):
        raise DisconnectedSubtreeError("duplicate subtree members")
    top = min(seen, key=lambda cv: cv.depth)
    for cv in seen:
        if cv == top:
            continue
        if cv.depth == top.depth:
            raise DisconnectedSubtreeError("two subtree members of minimal depth")
        if cover_parent(g, cv) not in seen:
            raise DisconnectedSubtreeError(f"parent of {cv.path} missing from subtree")
    return seen, top


def _by_depth(paths):
    """The paths as blocks, one per depth."""
    groups = {}
    for path in paths:
        groups.setdefault(len(path), []).append(path)
    return [_block(rows, depth) for depth, rows in groups.items()]


def _upward(g, cv, r):
    """Blocks of the cover vertices at distance r >= 1 from ``cv`` whose tree
    path to it runs through its parent: at height j < r above ``cv``, the
    ancestor's other children, r - j - 1 levels down; at height r <= depth,
    the ancestor itself."""
    table = _arc_table(g)
    path, d = cv.path, cv.depth
    blocks = []
    for j in range(1, min(r, d) + 1):
        above = path[:d - j]
        if j == r:
            blocks.append(_block([above], d - j))
        else:
            rows = [above + (h,) for h in _steps(g, cv.root, above) if h != path[d - j]]
            blocks.append(table.descend((_block(rows, d - j + 1), ()), r - j - 1))
    return blocks


def _below(g, top, seen, k):
    """Blocks of the cover vertices k + 1 levels below a validated subtree and
    outside it: the children of members that are not members, with their
    descendants k levels down."""
    paths = {cv.path for cv in seen}
    boundary = [path + (h,) for path in paths for h in _steps(g, top.root, path)
                if path + (h,) not in paths]
    table = _arc_table(g)
    return [table.descend((rows, ()), k) for rows in _by_depth(boundary)]


def tube_vertices(g, members, r):
    """Cover vertices at tree distance exactly r from a connected subtree.

    Radius 0 is the members, one block per depth.  Beyond it the tube is the
    union of the branches behind the subtree's boundary tree edges: below a
    member, a child outside the subtree with its descendants r - 1 levels
    down; above the top vertex, its upward branch.
    """
    _check_radius(r)
    seen, top = validate_subtree(g, members)
    if r == 0:
        return PathLayer(g, top.root, _by_depth(cv.path for cv in seen), VERTICES)
    return PathLayer(g, top.root, _below(g, top, seen, r - 1) + _upward(g, top, r), VERTICES)


def tube_edges(g, members, r):
    """Tree edges whose nearer endpoint is at tree distance exactly r from a
    connected subtree, each held as its deeper endpoint.

    Away from the subtree's ancestors the deeper endpoint is the farther one,
    so these are the vertices of the tube of radius r + 1, as arc_edge_layers
    reads an arc, except on the path up from the top vertex: there the edge
    at height r is held by its lower end, the ancestor r levels up, and not
    by the ancestor r + 1 levels up.  Radius 0 adds the subtree's own edges,
    held by the members other than the top.
    """
    _check_radius(r)
    seen, top = validate_subtree(g, members)
    blocks = _below(g, top, seen, r) + _upward(g, top, r + 1)
    if r < top.depth:  # _upward's last block is the ancestor r + 1 levels up
        blocks[-1] = _block([top.path[:top.depth - r]], top.depth - r)
    if r == 0:
        blocks += _by_depth(cv.path for cv in seen if cv != top)
    return PathLayer(g, top.root, blocks, EDGES)


# --- geodesics and horocycle subsets ---

@dataclass(frozen=True)
class GeodesicSpec:
    """Periodic closed non-backtracking walk, unrolled to a two-sided tree geodesic."""

    half_edges: tuple[int, ...]

    def validate(self, g):
        seq = self.half_edges
        if not seq:
            raise InvalidGeodesicError("geodesic period is empty")
        n = len(seq)
        for i, h in enumerate(seq):
            if not (0 <= h < g.half_edge_count):
                raise InvalidGeodesicError(f"half-edge id {h} out of range")
            nxt = seq[(i + 1) % n]
            if g.head(h) != g.tail(nxt):
                raise InvalidGeodesicError("geodesic walk is not closed")
            if nxt == g.twin(h):
                raise InvalidGeodesicError("geodesic walk backtracks")
        return self

    def root(self, g):
        return g.tail(self.half_edges[0])

    def half_edge_at(self, k):
        return self.half_edges[k % len(self.half_edges)]

    def vertex_at(self, g, k):
        """The k-th forward vertex of the geodesic, k >= 0, in root coordinates."""
        if k < 0:
            raise ValueError("only the forward ray is indexed")
        path = tuple(self.half_edge_at(i) for i in range(k))
        return cover_vertex(g, self.root(g), path)


def horocycle_subset(g, geodesic, r):
    """The radius-r piece of the horocycle through the geodesic's origin.

    This is the set of cover vertices w at distance r from the r-th forward
    geodesic vertex whose Busemann value along the forward ray is zero;
    equivalently, the arc of radius r + 1 based at the tree edge pointing
    from the (r+1)-th geodesic vertex back to the r-th: that vertex's upward
    branch of radius r + 1.
    """
    _check_radius(r)
    geodesic.validate(g)
    v_r1 = geodesic.vertex_at(g, r + 1)
    return PathLayer(g, v_r1.root, _upward(g, v_r1, r + 1), VERTICES)


# --- scalar fields ---

class ScalarField:
    """Real-valued function on the vertices or on the edges of the base graph:
    read-only ``values`` and their ``split`` (_split), fixed at construction."""

    __slots__ = ("support", "values", "split")

    def __init__(self, support, values):
        if support not in (VERTICES, EDGES):
            raise ValueError(f"support must be {VERTICES!r} or {EDGES!r}")
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("field values must be a flat vector")
        if not np.isfinite(arr).all():
            raise ValueError("field values must be finite")
        arr.setflags(write=False)
        self.support = support
        self.values = arr
        self.split = _split(arr)
        self.split.setflags(write=False)

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"ScalarField({self.support}, n={len(self.values)})"


def constant_field(g, support, value):
    n = g.vertex_count if support == VERTICES else g.edge_count
    return ScalarField(support, [value] * n)


def indicator_field(g, support, index):
    n = g.vertex_count if support == VERTICES else g.edge_count
    values = [0.0] * n
    values[index] = 1.0
    return ScalarField(support, values)


def _split(values):
    """The (2, V) parts top + rest of the values: top clears the low 26 bits of
    each stored fraction, so has at most 27 significant bits, and rest, exact,
    at most 26; a count below 2**26 times either part, subnormal too, is exact."""
    top = (values.view(np.int64) & -(1 << 26)).view(float)
    return np.stack((top, values - top))


def _mean(values, counts=None, split=None, n=None):
    """The one mean, correctly rounded, of a list of floats or of the multiset
    holding values[v] counts[v] times, summed as the exact terms 26-bit count
    digit * part for each part of _split(values) (or ``split``): fsum rounds
    their exact total, the list's, once, so the mean has the list's bits.
    Below n * max|x| = 2**1023 no term or partial sum can overflow; from it on
    the total is kept exactly as an integer in units of 2**-1074, id by id,
    and raises where the list's fsum does: where a running total at the end of
    a run of equal values rounds past the float range.  ``n`` is the element
    count, if the caller holds it."""
    n = (len(values) if counts is None else int(counts.sum())) if n is None else n
    try:
        if counts is not None and n * max(map(abs, values.tolist())) >= 2.0 ** 1023:
            return _running_total(values, counts) / n
        if counts is not None:
            split = _split(values) if split is None else split
            if n >> 26:  # a count may pass 2**26: one column per 26-bit digit
                k = np.arange(0, n.bit_length(), 26)
                counts, split = (counts[:, None] >> k & (1 << 26) - 1) << k, split[..., None]
            values = (split * counts).ravel().tolist()
        return math.fsum(values) / n
    except OverflowError:
        raise SizeOutOfRangeError(f"the sum of {n} field values is past the float range") from None


# 2**1024 - 2**970, halfway from the largest float to 2**1024, in units of
# 2**-1074: a total from here on rounds past the float range
_RANGE_EDGE = (1 << 2098) - (1 << 2044)


def _running_total(values, counts):
    """The correctly rounded total of the multiset listed in id order; raises
    OverflowError where a running total at the end of an id's run rounds past
    the float range (within a run it moves one way, so its ends bound it)."""
    total = 0
    for x, c in zip(values.tolist(), counts.tolist()):
        num, den = x.as_integer_ratio()
        total += c * num << 1075 - den.bit_length()
        if abs(total) >= _RANGE_EDGE:
            raise OverflowError
    return total / (1 << 1074)


# below this many entries an array's column means are cheaper one fsum at a time
_COLUMN_MEANS_MIN = 1536


def _column_means(values):
    """_mean of every column of the (n, m) array ``values``, with its bits.

    Error-free extraction (Rump, Ogita and Oishi 2008): per column, with
    2**e > max|r| and sigma = 2**(e + k), k = n.bit_length() + 1, the high
    part hi = (sigma + r) - sigma is exact, a multiple of ulp(sigma) / 2, and
    r - hi is exact; n such parts, each at most 2**e, sum exactly in any
    order, below sigma / 2.  Passes go on with r - hi until it is all zero
    (two or three for eigenvector blocks), and fsum rounds each column's
    exact pass sums once, as it rounds the column's list.  A zero mean takes
    the list's fsum, whose zero sign differs across Python versions.  Small
    blocks, all zero ones, and any with n * max|x| >= 2**1021 where sigma
    could overflow are averaged column by column as lists, with the same
    bits."""
    n = len(values)
    top = np.abs(values).max(axis=0) if values.size >= _COLUMN_MEANS_MIN else None
    if top is None or not 0.0 < n * float(top.max()) < 2.0 ** 1021:
        return list(map(_mean, values.T.tolist()))
    k, rest, sums = n.bit_length() + 1, values, []
    while top.any():
        sigma = np.ldexp(1.0, np.frexp(top)[1] + k)
        hi = (rest + sigma) - sigma
        sums.append(hi.sum(axis=0))
        rest = rest - hi
        top = np.abs(rest).max(axis=0)
    return [math.fsum(col) / n or _mean(values[:, j].tolist())
            for j, col in enumerate(np.array(sums).T.tolist())]


def graph_average(f):
    """Mean of the field over the whole base graph."""
    return _mean(f.values.tolist())


def part_average(f, part):
    """Mean of a field, or list of column means of an (n, m) value array, over the ids ``part``."""
    values = f.values[list(part)] if isinstance(f, ScalarField) else f[list(part)]
    return _mean(values.tolist()) if values.ndim == 1 else _column_means(values)


def _expected_length(g, support):
    return g.vertex_count if support == VERTICES else g.edge_count


def check_field(g, f, support=None):
    if support is not None and f.support != support:
        raise SupportMismatchError(f"need a field on {support}, got one on {f.support}")
    if len(f.values) != _expected_length(g, f.support):
        raise SupportMismatchError(
            f"field length {len(f.values)} does not match the graph's {f.support}"
        )


_NEEDS_FIELD = {VERTICES: "vertex set needs a vertex field", EDGES: "edge set needs an edge field"}


def set_average(f, elements):
    """Mean of the lifted field over a set of cover vertices or cover edges.

    A PathLayer is read straight from its path rows, without building its
    objects.  N elements on V ids are averaged as per-id counts, with the
    field's split, when N > V * N.bit_length(), where the 2V terms per 26-bit
    count digit are surely fewer than the N values.
    """
    if isinstance(elements, PathLayer):
        support, ids = elements.support, elements.ids()
    else:
        elements = list(elements)
        first = elements[0] if elements else None
        if isinstance(first, CoverEdge):
            support, ids = EDGES, [ce.edge for ce in elements]
        elif first is None or isinstance(first, CoverVertex):
            support, ids = VERTICES, [cv.vertex for cv in elements]
        else:
            raise SupportMismatchError(f"cannot average over {type(first).__name__}")
    if not len(ids):
        raise EmptySetError("cannot average over an empty set")
    if f.support != support:
        raise SupportMismatchError(_NEEDS_FIELD[support])
    values, n = f.values, len(ids)
    if n > len(values) * n.bit_length():
        return _mean(values, np.bincount(ids, minlength=len(values)), f.split, n)
    return _mean(values[ids].tolist())


# --- non-backtracking transfer operator over half-edges ---
#
# The paths of an arc are the non-backtracking half-edge paths that start with
# its base half-edge, so its sizes and averages come from powers of
# Hashimoto's edge operator B, where B[h, h2] = 1 when h2 continues h without
# backtracking.  Sizes are exact integers, counted on the quotient of B by the
# coarsest equitable partition of the half-edges (one class on regular graphs,
# two on semiregular ones).  Averages come from a float path distribution that
# only ever adds non-negative terms and is rescaled by powers of two (exact)
# once per block of raw steps, whose length comes from the field's range, so no
# centred sum passes the float range; they are centred on the value at the
# base, so a constant field averages to itself exactly.

# from this many half-edges on, a transfer step gathers each half-edge's
# predecessors instead of scatter-adding with np.bincount; per step (2-core
# Xeon VM, numpy 2.4), bincount wins up to 90 half-edges on cubic graphs and
# 240 on 4-regular ones, the gather from 120 and 480 (2.5 against 3.3 us at
# 258 on cubic graphs, 12 against 20 us at 3,000)
_GATHER_MIN = 256


class TransferOperator:
    """Hashimoto's operator of one graph as continuation pairs ``src -> dst``
    and, unless one half-edge has far more predecessors than most, as a table
    ``preds`` of every half-edge's predecessors, with the class of every
    half-edge in the coarsest equitable partition and the integer quotient
    matrix as sparse rows of (class, count) pairs.  Arc sizes depend only on the
    base's class, so they are counted once per class and kept (see sizes)."""

    __slots__ = ("size", "src", "dst", "preds", "heads", "edges", "shift", "classes", "quotient",
                 "rows", "floats")

    def __init__(self, g):
        self.size = size = g.half_edge_count
        steps = list(map(g.continuations, range(size)))
        fanout = np.fromiter(map(len, steps), np.intp, size)
        self.shift = int(fanout.max(initial=0)).bit_length()  # 2**shift > any continuation count
        self.src = np.repeat(np.arange(size), fanout)
        self.dst = np.fromiter(itertools.chain.from_iterable(steps), np.intp, len(self.src))
        # preds[i, h] is the i-th source of a pair into h in the order bincount
        # adds them (src is sorted, the sort by dst stable), and size, a zero
        # slot, past h's last; every half-edge is padded to the largest
        # in-degree, so where that takes more than twice the pairs and
        # half-edges (a hub among low degrees) there is no table
        order = np.argsort(self.dst, kind="stable")
        into = self.dst[order]
        rank = np.arange(len(into)) - np.searchsorted(into, into)
        depth = max(2, int(rank.max(initial=0)) + 1)
        self.preds = None
        if depth * size <= 2 * (len(into) + size):
            self.preds = np.full((depth, size), size)
            self.preds[rank, into] = self.src[order]
        self.heads = np.array(g.heads, dtype=np.intp)
        self.edges = np.fromiter(map(g.edge_of, range(size)), np.intp, size)
        self.classes, self.quotient = _equitable_partition(g)
        self.rows, self.floats = {}, {}

    def sizes(self, base, support, max_radius):
        """The sizes of the vertex or edge arcs at ``base``, radius 0 .. max_radius,
        as a new list, and their float images as a read-only array, from the
        ``rows`` and ``floats`` kept for base's class.  A shorter row is extended by
        counting again from the start, so no counting state is kept, up to the first
        size past the float range, which raises SizeOutOfRangeError: an arc of that
        size has no float sum, and no kept row holds a size over 1,024 bits."""
        c, first = self.classes[base], support == EDGES  # A'_r: paths of r + 1 half-edges
        row, hi = self.rows.setdefault(c, [1]), max_radius + 1 + first
        if len(row) < hi:
            past = itertools.islice(self._past(c, len(row)), hi - len(row))
            row += itertools.takewhile(_FLOAT_MAX.__ge__, past)
            if len(row) < hi:
                raise _float_range_error(len(row) - first, next(self._past(c, len(row))))
        if len(self.floats.get(c, ())) < len(row):
            self.floats[c] = np.array(row, dtype=float)
            self.floats[c].setflags(write=False)
        return row[first:hi], self.floats[c][first:hi]

    def _past(self, row, n):
        """Iterate over the numbers of paths of n >= 1, n + 1, .. half-edges from class
        ``row``: (Q^(k-1) 1)[row] for k, since B P = P Q for the class indicator P."""
        if all(len(terms) == 1 for terms in self.quotient):
            # every class continues into one class (regular and semiregular graphs),
            # so (Q^k 1)[row] is the product of the counts along the first k classes
            # visited from row; the visits end in a cycle
            first, factors = {}, []
            while row not in first:
                first[row] = len(factors)
                (row, c), = self.quotient[row]
                factors.append(c)
            start = first[row]
            chain = itertools.chain(factors[:start], itertools.cycle(factors[start:]))
            counts = itertools.accumulate(chain, operator.mul, initial=1)
        else:
            counts = self._stepped_counts(row)
        return itertools.islice(counts, n - 1, None)

    def _stepped_counts(self, row):
        vec = [1] * len(self.quotient)
        while True:
            yield vec[row]
            vec = [sum(c * vec[j] for j, c in terms) for terms in self.quotient]

    def averages(self, at, base, n):
        """Path-weighted averages of the per-half-edge values ``at``, (H,) or
        (H, m), over the last half-edges of the paths of 1 .. n half-edges
        starting with ``base`` (0.0 where there are no such paths), one row
        per length.  One path distribution serves every column; each column's
        moments come from its own (2, H) slice of a stacked (m, 2, H) @ p
        product, which rounds exactly as the one-column product does.  Values
        whose span is past the float range cannot be centred and raise
        SizeOutOfRangeError before any step.

        A step adds, for every half-edge, the entries of its predecessors in
        increasing order, starting from the first: np.bincount's scatter-add
        below _GATHER_MIN half-edges or without a table, and otherwise a
        gather through the (d, H) table ``preds``, its rows added in order
        straight into the block's row, where a missing predecessor reads a
        zero slot after the H entries.  The terms are non-negative, so 0.0 + x is x and x + 0.0
        is x, and both kernels give the same bits, subnormals included.

        The path distribution ``p`` is stepped raw, without rescaling, in
        blocks of up to 16 rows, and one stacked product takes the moments of
        a whole block; before each block after the first, ``p`` is rescaled
        by a power of two to a total below 2**-shift.  A raw step multiplies
        the total by less than 2**shift, so the block is the longest of 16,
        8, 4, 2 and 1 rows that the largest centred value leaves room for
        below the float range: 16 for values up to about
        2**(1020 - 16 * shift), one for values near 2**1023.  A power of two
        scales both moments of a row exactly, so every average has the bits
        of a loop that rescales before every step, except for values small
        enough that the products go subnormal (about 1e-308 and below), where
        the larger raw distribution rounds fewer of them.

        The rescaled ``p`` at a block's start is the loop's whole state.  It is
        kept and compared, bit for bit, with the one kept a block before; once
        they are equal, every later row repeats the row a block before it, so
        the remaining rows are copied instead of stepped and have the bits
        stepping would give.  A repeat shows when its period divides the
        block.  On every regular graph tried, and on K(2,5), the distribution
        repeats from step 55-140 with period 1, 2 or 4, so with blocks of 4 or
        more the loop stops by step 160; on K(3,4) and the irregular graphs
        tried it never repeats, and the loop steps to the end."""
        cols = at.reshape(self.size, -1)
        centre = cols[base]
        if not np.abs(cols).max() < 2.0 ** 1023:  # only then can a difference overflow
            with np.errstate(over="ignore"):
                if not np.isfinite(cols - centre).all():
                    raise SizeOutOfRangeError("the field's values span past the float range")
        rows = np.ones((len(centre), 2, self.size))  # path count; C order, so each (2, H)
        rows[:, 1] = (cols - centre).T               # slice is a plain BLAS matrix
        src, dst, preds, size, shift = self.src, self.dst, self.preds, self.size, self.shift
        bincount = np.bincount
        room = 1020 - math.frexp(np.abs(rows[:, 1]).max())[1]
        # a power of two, so that repeats of period 2 and 4 still show in short blocks
        block = 1 << max(1, min(16, room // max(shift, 1))).bit_length() - 1
        gather = size >= _GATHER_MIN and preds is not None
        if gather:  # a zero slot after each row, where preds points for a missing predecessor
            buf = np.zeros((block, size + 1))
            cells, more = buf[:, :size], range(2, len(preds))
        else:
            buf = cells = np.empty((block, size))
        p = np.zeros(buf.shape[1])
        p[base] = 1.0
        moments = np.empty((n, len(rows), 2))
        kept = None
        for start in range(0, n, block):
            stop = min(start + block, n)
            if start:
                p = np.ldexp(p, -math.frexp(total)[1] - shift)
                state = p.tobytes()
                if state == kept:  # p repeats p of step start - block
                    moments[start:] = moments[start - block + np.arange(n - start) % block]
                    break
                kept = state
            if gather:
                for k in range(start, stop):
                    if k:
                        terms = p[preds]
                        row = cells[k - start]
                        np.add(terms[0], terms[1], out=row)
                        for i in more:
                            row += terms[i]
                        p = buf[k - start]
                    else:
                        buf[0] = p
            else:
                for k in range(start, stop):
                    if k:
                        p = bincount(dst, p[src], size)
                    buf[k - start] = p
            np.matmul(rows, cells[:stop - start, None, :, None], out=moments[start:stop, ..., None])
            total = moments.item(stop - 1, 0, 0)
            if total == 0.0:  # dead end: every total from the first zero on is zero
                moments = moments[:start + moments[start:stop, 0, 0].argmin()]
                break
        out = np.zeros((n, len(rows)))
        out[:len(moments)] = centre + moments[..., 1] / moments[..., 0]
        return out.reshape((n, *at.shape[1:]))


def _equitable_partition(g):
    """Coarsest partition of the half-edges in which all members of a class
    have the same number of continuations in each class, by colour refinement.

    Returns (class of each half-edge, quotient rows): row i lists the
    (class j, count) pairs of any member of class i.  Where every half-edge
    has the same fan-out c, one class is already equitable: row ((0, c),).
    """
    colour = [0] * g.half_edge_count
    fanout = set(map(len, map(g.continuations, range(g.half_edge_count))))
    if len(fanout) == 1:
        c, = fanout
        return colour, (((0, c),) if c else (),)
    count = 1
    while True:
        ids = {}
        refined = [
            ids.setdefault((colour[h], tuple(sorted(colour[x] for x in g.continuations(h)))),
                           len(ids))
            for h in range(g.half_edge_count)
        ]
        if len(ids) == count:
            break
        colour, count = refined, len(ids)
    members = {}
    for h, c in enumerate(colour):
        members.setdefault(c, h)
    quotient = []
    for c in range(count):
        tally = {}
        for x in g.continuations(members[c]):
            tally[colour[x]] = tally.get(colour[x], 0) + 1
        quotient.append(tuple(sorted(tally.items())))
    return colour, tuple(quotient)


def transfer_operator(g):
    """The graph's transfer operator, built on first use and kept on the graph."""
    if g._transfer is None:
        g._transfer = TransferOperator(g)
    return g._transfer


_FLOAT_MAX = int(sys.float_info.max)


def _float_range_error(r, n):
    """The error for an arc of radius ``r`` with ``n`` elements, too many for a float sum."""
    return SizeOutOfRangeError(
        f"arc at radius {r} has about 2**{n.bit_length() - 1} elements; "
        "their sum is past the float range")


def _sums(sizes, images, averages):
    """Per-radius sums (size times average) of an arc series, from float images.

    The operator yields averages; they are multiplied back into sums only to
    keep the (sizes, sums) results of the arc_*_sums functions, and callers
    divide again.  This is the one place a size meets a float: a sum past the
    float range raises SizeOutOfRangeError naming the radius.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, with the radius
        sums = images[:, None] * averages
    if not np.isfinite(sums).all():
        r = np.flatnonzero(~np.isfinite(sums).all(axis=1))[0]
        raise _float_range_error(r, sizes[r])
    return sums


def arc_vertex_count(g, base, r):
    """|A_r(base)| by exact integer counting; keeps only the last size."""
    return _layer_at(arc_counts(g, base, VERTICES, r), r)


def arc_edge_count(g, base, r):
    """|A'_r(base)| by exact integer counting."""
    return _layer_at(arc_counts(g, base, EDGES, r), r)


def arc_counts(g, base, support, max_radius):
    """Iterate over the exact sizes of the vertex or edge arcs at ``base``, radius
    0 .. max_radius (kept, then counted): A_r has the paths of r half-edges, A'_r of r + 1."""
    check_id("half-edge", base, g.half_edge_count)
    _check_radius(max_radius)
    op, first = transfer_operator(g), support == EDGES
    row = op.rows.get(op.classes[base], [1])  # the paths of 0 .. len(row) - 1 half-edges
    counts = itertools.chain(row[:], op._past(op.classes[base], len(row)))
    return itertools.islice(counts, first, max_radius + 1 + first)


def _arc_sums(g, f, base, max_radius, support):
    if isinstance(f, np.ndarray):  # value columns, checked whole
        if not np.isfinite(f).all():
            raise ValueError("field values must be finite")
        if f.ndim != 2 or len(f) != _expected_length(g, support):
            raise SupportMismatchError(f"values of shape {f.shape} do not fit the graph's {support}")
        values = f
    else:
        check_field(g, f, support)
        values = f.values[:, None]
    check_id("half-edge", base, g.half_edge_count)
    _check_radius(max_radius)
    op = transfer_operator(g)
    sizes, images = op.sizes(base, support, max_radius)
    if support == VERTICES:
        averages = np.concatenate([values[g.tail(base)][None],
                                   op.averages(values[op.heads], base, max_radius)])
    else:
        averages = op.averages(values[op.edges], base, max_radius + 1)
    sums = _sums(sizes, images, averages)
    return sizes, (sums if values is f else sums[:, 0].tolist())


def arc_vertex_sums(g, f, base, max_radius):
    """Per-radius (size, sum of lifted values) over vertex arcs A_0 .. A_R of a field;
    an (n, m) array of field values gives an (R+1, m) array of sums."""
    return _arc_sums(g, f, base, max_radius, VERTICES)


def arc_edge_sums(g, f, base, max_radius):
    """Per-radius (size, sum of lifted values) over edge arcs A'_0 .. A'_R, as arc_vertex_sums."""
    return _arc_sums(g, f, base, max_radius, EDGES)


def arc_average_transfer(g, f, base, r):
    """Arc average of the lifted field, via the transfer operator instead of
    enumeration.

    Agrees with set_average over arc_vertices/arc_edges to ~1e-15 relative;
    the declared equivalence tolerance is 1e-12.
    """
    if f.support == VERTICES:
        sizes, sums = arc_vertex_sums(g, f, base, r)
    else:
        sizes, sums = arc_edge_sums(g, f, base, r)
    if sizes[r] == 0:
        raise EmptySetError(f"arc of radius {r} is empty")
    return sums[r] / sizes[r]


# --- field and geodesic text formats ---
#
#   field vertices|edges <count>      geodesic <period>
#   <id> <value>                      u v k     (k-th parallel edge, default 0)
#
# Field values are written with repr() so reading them back is bit-exact.

def write_field(f):
    lines = [f"field {f.support} {len(f.values)}"]
    lines.extend(f"{i} {float(v)!r}" for i, v in enumerate(f.values))
    return "\n".join(lines) + "\n"


def _field_value(row):
    idx, val = row
    idx, val = int(idx), float(val)
    if not math.isfinite(val):
        raise ValueError("non-finite value")
    return idx, val


def read_field(text):
    header, rows = graph_core.read_records(
        text, "field", "field vertices|edges <count>", 2, "value", lambda _: _field_value)
    if len(header) != 3 or header[1] not in (VERTICES, EDGES):
        raise GraphFileError("field file must start with 'field vertices|edges <count>'")
    values = dict(rows)
    if sorted(values) != list(range(len(rows))):
        raise GraphFileError(f"field ids must be 0 .. {len(rows) - 1}, each once")
    return ScalarField(header[1], [values[i] for i in range(len(rows))])


def load_field(path):
    return read_field(graph_core.read_ascii(path))


def save_field(f, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_field(f))


def write_geodesic(g, geodesic):
    lines = [f"geodesic {len(geodesic.half_edges)}"]
    for h in geodesic.half_edges:
        u, v = g.tail(h), g.head(h)
        k = [x for x in g.out(u) if g.head(x) == v].index(h)
        lines.append(f"{u} {v} {k}")
    return "\n".join(lines) + "\n"


def read_geodesic(g, text):
    def step(row):
        if len(row) not in (2, 3):
            raise ValueError("expected 'u v [k]'")
        return g.half_edge(*map(int, row))

    header, steps = graph_core.read_records(
        text, "geodesic", "geodesic <period>", 1, "step", lambda _: step)
    if len(header) != 2:
        raise GraphFileError("geodesic file must start with 'geodesic <period>'")
    return GeodesicSpec(tuple(steps)).validate(g)


def load_geodesic(g, path):
    return read_geodesic(g, graph_core.read_ascii(path))
