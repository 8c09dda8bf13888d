"""Lazy universal covering tree of a finite graph.

Cover vertices are non-backtracking half-edge paths from a root vertex;
nothing global is ever materialised.  The module enumerates spherical arcs,
spheres, tubes and horocycle subsets, and averages lifted functions over them
both by brute-force enumeration and by a non-backtracking transfer operator
over half-edges (exact integer sizes, float path distributions).
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
    GraphError,
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


def cover_vertex(g, root, path):
    """Validated CoverVertex from a half-edge path starting at ``root``."""
    if not 0 <= root < g.vertex_count:
        raise CoverError(f"root vertex {root} out of range")
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


def cover_children(g, cv):
    """Tree neighbours one step farther from the root."""
    if cv.path:
        steps = g.continuations(cv.path[-1])
    else:
        steps = g.out(cv.root)
    return [CoverVertex(cv.root, cv.path + (h,), g.head(h)) for h in steps]


def cover_neighbors(g, cv):
    out = cover_children(g, cv)
    parent = cover_parent(g, cv)
    if parent is not None:
        out.append(parent)
    return out


def tree_distance(u, v):
    """Distance between two cover vertices sharing a root (path algebra)."""
    if u.root != v.root:
        raise ValueError("cover vertices live in trees with different roots")
    c = 0
    for a, b in zip(u.path, v.path):
        if a != b:
            break
        c += 1
    return (len(u.path) - c) + (len(v.path) - c)


# --- arcs and spheres (root coordinates) ---
#
# A layer of an arc or a sphere is an (N, depth) matrix of half-edge paths from
# one root, one row per element.  Layer r + 1 repeats each row of layer r once
# per continuation of its last half-edge and appends that continuation.  The
# continuations come from this module's own table, not from the transfer
# operator's arrays, and no rows are ever merged, so enumeration stays an
# independent oracle for the transfer.

class _ArcTable:
    """Continuations of every half-edge as a CSR table, with the head vertex
    and the edge id of every half-edge."""

    __slots__ = ("starts", "counts", "steps", "heads", "edges")

    def __init__(self, g):
        self.counts = np.array([len(g.continuations(h)) for h in range(g.half_edge_count)],
                               dtype=np.intp)
        self.starts = np.cumsum(self.counts) - self.counts
        self.steps = np.array([x for h in range(g.half_edge_count) for x in g.continuations(h)],
                              dtype=np.intp)
        self.heads = np.array(g.heads, dtype=np.intp)
        self.edges = np.array([g.edge_of(h) for h in range(g.half_edge_count)], dtype=np.intp)

    def extend(self, paths):
        """The paths one half-edge longer, in the order of their parents."""
        last = paths[:, -1]
        parent = np.repeat(np.arange(len(paths)), self.counts[last])
        first = self.starts[last][parent]
        # rank of each new row among the continuations of its parent
        rank = np.arange(len(parent)) - np.searchsorted(parent, parent)
        return np.column_stack([paths[parent], self.steps[first + rank]])


def _arc_table(g):
    """The graph's arc table, built on first use and kept on the graph."""
    if g._arc_table is None:
        g._arc_table = _ArcTable(g)
    return g._arc_table


class PathLayer(Set):
    """Read-only set of cover vertices, or of the tree edges above them, held
    as the rows of an (N, depth) ``intp`` matrix of half-edge paths from one
    root.

    ``len`` is the number of rows.  Iterating builds the CoverVertex (or
    CoverEdge) objects one at a time; ``in``, ``==`` and ``<=`` against
    frozensets of them work through the Set mixins, and set operators return
    frozensets.  ``support`` says which kind of element the rows stand for.
    """

    __slots__ = ("g", "root", "paths", "support", "_rows")

    def __init__(self, g, root, paths, support):
        paths.setflags(write=False)
        self.g = g
        self.root = root
        self.paths = paths
        self.support = support
        self._rows = None

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self):
        return len(self.paths)

    def __iter__(self):
        g, root = self.g, self.root
        for row in self.paths.tolist():
            path = tuple(row)
            cv = CoverVertex(root, path, g.head(path[-1]) if path else root)
            yield cv if self.support == VERTICES else CoverEdge(cv, g.edge_of(path[-1]))

    def __contains__(self, item):
        kind = CoverVertex if self.support == VERTICES else CoverEdge
        if type(item) is not kind:
            return False
        cv = item if kind is CoverVertex else item.deeper
        if self._rows is None:
            self._rows = frozenset(map(tuple, self.paths.tolist()))
        return cv.root == self.root and cv.path in self._rows

    def __repr__(self):
        return (f"PathLayer({self.support}, root={self.root}, "
                f"depth={self.paths.shape[1]}, n={len(self)})")

    def ids(self):
        """The base vertex (or edge) every element projects to."""
        if not self.paths.shape[1]:
            return np.full(len(self), self.root, dtype=np.intp)
        table = _arc_table(self.g)
        return (table.heads if self.support == VERTICES else table.edges)[self.paths[:, -1]]


def _root_layer(g, v):
    return PathLayer(g, v, np.empty((1, 0), dtype=np.intp), VERTICES)


def arc_vertex_layers(g, base, max_radius):
    """Yield the vertex arcs A_0 .. A_R of the directed edge ``base`` as path layers."""
    tail = g.tail(base)
    yield _root_layer(g, tail)
    table = _arc_table(g)
    paths = np.array([[base]], dtype=np.intp)
    for r in range(1, max_radius + 1):
        if r > 1:
            paths = table.extend(paths)
        yield PathLayer(g, tail, paths, VERTICES)


def _layer_at(layers, r):
    """Layer ``r`` of a generator that yields layers 0, 1, .., r."""
    return next(itertools.islice(layers, r, None))


def arc_vertices(g, base, r):
    """The arc A_r(base): cover vertices at distance r from the tail, through ``base``."""
    return _layer_at(arc_vertex_layers(g, base, r), r)


def arc_edge_layers(g, base, max_radius):
    """Yield the edge arcs A'_0 .. A'_R of ``base``.

    The edges of A'_r have their nearer endpoint at distance r from the tail
    on the branch through ``base``, so their deeper endpoints are exactly the
    vertex arc of radius r + 1: the same path rows, read as edges.
    """
    layers = arc_vertex_layers(g, base, max_radius + 1)
    next(layers)  # depth-0 layer carries no tree edge
    for layer in layers:
        yield PathLayer(g, layer.root, layer.paths, EDGES)


def arc_edges(g, base, r):
    return _layer_at(arc_edge_layers(g, base, r), r)


def _stacked(g, v0, arcs, depth, support):
    """One layer holding the rows of the arcs at v0's half-edges."""
    rows = [np.empty((0, depth), dtype=np.intp)]  # a vertex without half-edges has none
    rows += [arc.paths for arc in arcs]
    return PathLayer(g, v0, np.concatenate(rows), support)


def sphere_vertices(g, v0, r):
    """The sphere S_r(v0): the disjoint union of the d(v0) arcs of radius r."""
    if r == 0:
        return _root_layer(g, v0)
    return _stacked(g, v0, [arc_vertices(g, h, r) for h in g.out(v0)], r, VERTICES)


def sphere_edges(g, v0, r):
    """Tree edges whose nearer endpoint lies at distance r from the root."""
    return _stacked(g, v0, [arc_edges(g, h, r) for h in g.out(v0)], r + 1, EDGES)


# --- tubes around a finite connected subtree ---

def validate_subtree(g, members):
    """Check that ``members`` is a nonempty connected subtree sharing one root.

    Returns (member set, top vertex), where the top vertex is the unique
    member of minimal depth.
    """
    members = list(members)
    if not members:
        raise EmptySubtreeError("subtree has no vertices")
    root = members[0].root
    seen = set()
    for cv in members:
        if cv.root != root:
            raise DisconnectedSubtreeError("subtree members use different roots")
        cover_vertex(g, cv.root, cv.path)  # re-validate the encoding
        seen.add(cv)
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


def _tube_layers(g, members, max_radius):
    """Yield layers of vertices at tree distance 0 .. R from the member set."""
    visited = set(members)
    layer = list(members)
    yield list(layer)
    for _ in range(max_radius):
        nxt = []
        for cv in layer:
            for nb in cover_neighbors(g, cv):
                if nb not in visited:
                    visited.add(nb)
                    nxt.append(nb)
        layer = nxt
        yield list(layer)


def tube_vertices(g, members, r):
    """Cover vertices at tree distance exactly r from a connected subtree."""
    seen, _ = validate_subtree(g, members)
    return frozenset(_layer_at(_tube_layers(g, seen, r), r))


def tube_edges(g, members, r):
    """Tree edges whose nearer endpoint is at tree distance exactly r from the subtree."""
    seen, _ = validate_subtree(g, members)
    dist = {}
    for k, layer in enumerate(_tube_layers(g, seen, r + 1)):
        for cv in layer:
            dist[cv] = k
    out = set()
    for cv, d in dist.items():
        if cv.depth == 0:
            continue
        parent = cover_parent(g, cv)
        if parent in dist and min(d, dist[parent]) == r:
            out.add(CoverEdge(cv, g.edge_of(cv.path[-1])))
    return frozenset(out)


def tree_sphere(g, center, r):
    """Sphere of radius r around an arbitrary cover vertex."""
    return frozenset(_layer_at(_tube_layers(g, {center}, r), r))


def tree_arc(g, base_cv, toward_cv, radius):
    """Vertices at tree distance ``radius`` from ``base_cv`` on the branch through
    its neighbour ``toward_cv``."""
    if tree_distance(base_cv, toward_cv) != 1:
        raise ValueError("tree_arc requires adjacent cover vertices")
    if radius == 0:
        return frozenset([base_cv])
    visited = {base_cv, toward_cv}
    layer = [toward_cv]
    for _ in range(radius - 1):
        nxt = []
        for cv in layer:
            for nb in cover_neighbors(g, cv):
                if nb not in visited:
                    visited.add(nb)
                    nxt.append(nb)
        layer = nxt
    return frozenset(layer)


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
    from the (r+1)-th geodesic vertex back to the r-th.
    """
    geodesic.validate(g)
    v_r = geodesic.vertex_at(g, r)
    v_r1 = geodesic.vertex_at(g, r + 1)
    return tree_arc(g, v_r1, v_r, r + 1)


def busemann_value(g, geodesic, w, horizon):
    """Finite-truncation Busemann value  d(w, v_n) - n  at n = horizon."""
    return tree_distance(w, geodesic.vertex_at(g, horizon)) - horizon


# --- scalar fields ---

class ScalarField:
    """Real-valued function on the vertices or on the edges of the base graph."""

    __slots__ = ("support", "values")

    def __init__(self, support, values):
        if support not in (VERTICES, EDGES):
            raise ValueError(f"support must be {VERTICES!r} or {EDGES!r}")
        arr = np.array(values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("field values must be a flat vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        arr.setflags(write=False)
        self.support = support
        self.values = arr

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


def _mean(values):
    """Correctly rounded mean of a list of floats."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        raise SizeOutOfRangeError(
            f"the sum of {len(values)} field values is past the float range") from None


def graph_average(f):
    """Mean of the field over the whole base graph."""
    return _mean(f.values.tolist())


def part_average(f, part):
    """Mean of a vertex field over a vertex subset."""
    return _mean([float(f.values[v]) for v in part])


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
    objects; fsum rounds correctly, so the mean has the same bits either way.
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
    return _mean(f.values[ids].tolist())


# --- non-backtracking transfer operator over half-edges ---
#
# The paths of an arc are the non-backtracking half-edge paths that start with
# its base half-edge, so its sizes and averages come from powers of
# Hashimoto's edge operator B, where B[h, h2] = 1 when h2 continues h without
# backtracking.  Sizes are exact integers, counted on the quotient of B by the
# coarsest equitable partition of the half-edges (one class on regular graphs,
# two on semiregular ones).  Averages come from a float path distribution that
# only ever adds non-negative terms and is rescaled by powers of two (exact) to
# a total below 1 before every product, so no centred sum passes the float
# range; they are centred on the value at the base, so a constant field
# averages to itself exactly.

class TransferOperator:
    """Hashimoto's operator of one graph as continuation pairs ``src -> dst``,
    with the class of every half-edge in the coarsest equitable partition and
    the integer quotient matrix as sparse rows of (class, count) pairs."""

    __slots__ = ("size", "src", "dst", "heads", "edges", "shift", "classes", "quotient")

    def __init__(self, g):
        self.size = g.half_edge_count
        fanout = [len(g.continuations(h)) for h in range(self.size)]
        self.shift = max(fanout, default=0).bit_length()  # 2**shift > any continuation count
        self.src = np.repeat(np.arange(self.size), fanout)
        self.dst = np.array([h2 for h in range(self.size) for h2 in g.continuations(h)],
                            dtype=np.intp)
        self.heads = np.array(g.heads, dtype=np.intp)
        self.edges = np.array([g.edge_of(h) for h in range(self.size)], dtype=np.intp)
        self.classes, self.quotient = _equitable_partition(g)

    def counts(self, base, n):
        """Iterate over the exact numbers of paths of 1 .. n half-edges
        starting with ``base``: (Q^k 1)[class(base)] for k = 0 .. n-1, since
        B P = P Q for the class indicator matrix P."""
        row = self.classes[base]
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
            return itertools.islice(itertools.accumulate(chain, operator.mul, initial=1), n)
        return itertools.islice(self._stepped_counts(row), n)

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

        The loop's whole state after a step is the rescaled path distribution
        ``p``.  Every 16 steps it is kept and compared, bit for bit, with the
        one kept 16 steps before; once they are equal, every later row
        repeats the row 16 steps before it, so the remaining rows are copied
        instead of stepped and have the bits stepping would give.  On every
        regular graph tried, and on K(2,5), the distribution repeats from step
        55-140 with period 1, 2 or 4, so the loop stops by step 160; on K(3,4)
        and the irregular graphs tried it never repeats, and the loop steps to
        the end."""
        cols = at.reshape(self.size, -1)
        centre = cols[base]
        if not np.abs(cols).max() < 2.0 ** 1023:  # only then can a difference overflow
            with np.errstate(over="ignore"):
                if not np.isfinite(cols - centre).all():
                    raise SizeOutOfRangeError("the field's values span past the float range")
        rows = np.ones((len(centre), 2, self.size))  # path count; C order, so each (2, H)
        rows[:, 1] = (cols - centre).T               # slice is a plain BLAS matrix
        src, dst, size, shift = self.src, self.dst, self.size, self.shift
        ldexp, frexp, bincount, matmul = np.ldexp, math.frexp, np.bincount, np.matmul
        p = np.zeros(size)
        p[base] = 1.0
        moments = np.empty((n, len(rows), 2))
        kept = kept_total = None
        for k in range(n):
            if k:
                p = ldexp(p, -frexp(total)[1] - shift)
                p = bincount(dst, p[src], size)
            matmul(rows, p, out=moments[k])
            total = moments.item(k, 0, 0)
            if total == 0.0:  # dead end: every longer path is missing too
                moments = moments[:k]
                break
            if k % 16 == 0:
                if total == kept_total and p.tobytes() == kept:  # p repeats p of step k - 16
                    moments[k + 1:] = moments[k - 15 + np.arange(n - k - 1) % 16]
                    break
                kept, kept_total = p.tobytes(), total
        out = np.zeros((n, len(rows)))
        out[:len(moments)] = centre + moments[..., 1] / moments[..., 0]
        return out.reshape((n, *at.shape[1:]))


def _equitable_partition(g):
    """Coarsest partition of the half-edges in which all members of a class
    have the same number of continuations in each class, by colour refinement.

    Returns (class of each half-edge, quotient rows): row i lists the
    (class j, count) pairs of any member of class i.
    """
    colour = [0] * g.half_edge_count
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


def _sums(sizes, averages):
    """Per-radius sums (size times average) of an arc series.

    The operator yields averages; they are multiplied back into sums only to
    keep the (sizes, sums) results of the arc_*_sums functions, and callers
    divide again.  This is the one place a size meets a float: a sum past the
    float range raises SizeOutOfRangeError naming the radius.
    """
    top = max(sizes)
    if top < _FLOAT_MAX and float(top) * float(np.abs(averages).max()) < sys.float_info.max:
        # no product can pass the float range; the array rounds as float(n) does
        return np.array(sizes, dtype=float)[:, None] * averages
    scale = np.array([float(n) if n <= _FLOAT_MAX else math.inf for n in sizes])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, with the radius
        sums = scale[:, None] * averages
    if not np.isfinite(sums).all():
        r = np.flatnonzero(~np.isfinite(sums).all(axis=1))[0]
        raise SizeOutOfRangeError(
            f"arc at radius {r} has about 2**{sizes[r].bit_length() - 1} elements; "
            "their sum is past the float range")
    return sums


def arc_vertex_count(g, base, r):
    """|A_r(base)| by exact integer counting; keeps only the last size."""
    for size in arc_counts(g, base, VERTICES, r):
        pass
    return size


def arc_edge_count(g, base, r):
    """|A'_r(base)| by exact integer counting."""
    return arc_vertex_count(g, base, r + 1)


def arc_counts(g, base, support, max_radius):
    """Iterate over the exact sizes of the vertex or edge arcs at ``base``,
    radius 0 .. max_radius; A'_r has the paths of r + 1 half-edges."""
    counts = transfer_operator(g).counts(base, max_radius + (support == EDGES))
    # A_0 is the tail alone; A_r has the paths of r half-edges
    return itertools.chain([1], counts) if support == VERTICES else counts


def _arc_sums(g, f, base, max_radius, sizes, support):
    fields = [f] if isinstance(f, ScalarField) else f
    for item in fields:
        check_field(g, item, support)
    sizes = list(arc_counts(g, base, support, max_radius)) if sizes is None else sizes
    values = np.array([item.values for item in fields]).T
    op = transfer_operator(g)
    if support == VERTICES:
        averages = np.concatenate([values[g.tail(base)][None],
                                   op.averages(values[op.heads], base, max_radius)])
    else:
        averages = op.averages(values[op.edges], base, max_radius + 1)
    sums = _sums(sizes, averages)
    return sizes, (sums if fields is f else sums[:, 0].tolist())


def arc_vertex_sums(g, f, base, max_radius, sizes=None):
    """Per-radius (size, sum of lifted values) over vertex arcs A_0 .. A_R; a list of
    fields gives an (R+1, m) array of sums; ``sizes`` from arc_counts are not recounted."""
    return _arc_sums(g, f, base, max_radius, sizes, VERTICES)


def arc_edge_sums(g, f, base, max_radius, sizes=None):
    """Per-radius (size, sum of lifted values) over edge arcs A'_0 .. A'_R, as arc_vertex_sums."""
    return _arc_sums(g, f, base, max_radius, sizes, EDGES)


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


def read_field(text):
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise GraphFileError("empty field file")
    header = rows[0]
    if header[0] != "field" or len(header) != 3 or header[1] not in (VERTICES, EDGES):
        raise GraphFileError("field file must start with 'field vertices|edges <count>'")
    try:
        count = int(header[2])
    except ValueError as exc:
        raise GraphFileError("bad count in field header") from exc
    if len(rows) - 1 != count:
        raise GraphFileError(f"expected {count} value lines, found {len(rows) - 1}")
    values = [None] * count
    for row in rows[1:]:
        if len(row) != 2:
            raise GraphFileError(f"bad field line: {' '.join(row)}")
        try:
            idx, val = int(row[0]), float(row[1])
        except ValueError as exc:
            raise GraphFileError(f"bad field line: {' '.join(row)}") from exc
        if not (0 <= idx < count) or values[idx] is not None:
            raise GraphFileError(f"bad or repeated field index {idx}")
        if not math.isfinite(val):
            raise GraphFileError(f"non-finite field value: {' '.join(row)}")
        values[idx] = val
    return ScalarField(header[1], values)


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
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise GraphFileError("empty geodesic file")
    header = rows[0]
    if header[0] != "geodesic" or len(header) != 2:
        raise GraphFileError("geodesic file must start with 'geodesic <period>'")
    try:
        period = int(header[1])
    except ValueError as exc:
        raise GraphFileError("bad period in geodesic header") from exc
    if len(rows) - 1 != period:
        raise GraphFileError(f"expected {period} step lines, found {len(rows) - 1}")
    steps = []
    for row in rows[1:]:
        if len(row) not in (2, 3):
            raise GraphFileError(f"bad geodesic line: {' '.join(row)}")
        try:
            u, v = int(row[0]), int(row[1])
            k = int(row[2]) if len(row) == 3 else 0
            steps.append(g.half_edge(u, v, k))
        except (ValueError, GraphError) as exc:
            raise GraphFileError(f"bad geodesic line: {' '.join(row)}") from exc
    return GeodesicSpec(tuple(steps)).validate(g)


def load_geodesic(g, path):
    return read_geodesic(g, graph_core.read_ascii(path))
