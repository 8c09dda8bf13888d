"""Lazy universal covering tree of a finite graph.

Cover vertices are non-backtracking half-edge paths from a root vertex;
nothing global is ever materialised.  The module enumerates spherical arcs,
spheres, tubes and horocycle subsets, and averages lifted functions over them
both by brute-force enumeration and by an exact non-backtracking transfer
step over half-edges.
"""

from __future__ import annotations

import math
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

def arc_vertex_layers(g, base, max_radius):
    """Yield the vertex arcs A_0 .. A_R of the directed edge ``base`` as frozensets."""
    tail = g.tail(base)
    yield frozenset([cover_root(g, tail)])
    if max_radius == 0:
        return
    layer = [CoverVertex(tail, (base,), g.head(base))]
    yield frozenset(layer)
    for _ in range(2, max_radius + 1):
        nxt = []
        for cv in layer:
            for h in g.continuations(cv.path[-1]):
                nxt.append(CoverVertex(cv.root, cv.path + (h,), g.head(h)))
        layer = nxt
        yield frozenset(layer)


def arc_vertices(g, base, r):
    """The arc A_r(base): cover vertices at distance r from the tail, through ``base``."""
    for k, layer in enumerate(arc_vertex_layers(g, base, r)):
        if k == r:
            return layer
    raise AssertionError("unreachable")


def arc_edge_layers(g, base, max_radius):
    """Yield the edge arcs A'_0 .. A'_R of ``base``.

    The edges of A'_r have their nearer endpoint at distance r from the tail
    on the branch through ``base``, so their deeper endpoints are exactly the
    vertex arc of radius r + 1.
    """
    layers = arc_vertex_layers(g, base, max_radius + 1)
    next(layers)  # depth-0 layer carries no tree edge
    for layer in layers:
        yield frozenset(CoverEdge(cv, g.edge_of(cv.path[-1])) for cv in layer)


def arc_edges(g, base, r):
    for k, layer in enumerate(arc_edge_layers(g, base, r)):
        if k == r:
            return layer
    raise AssertionError("unreachable")


def sphere_vertices(g, v0, r):
    """The sphere S_r(v0): the disjoint union of the d(v0) arcs of radius r."""
    if r == 0:
        return frozenset([cover_root(g, v0)])
    out = set()
    for h in g.out(v0):
        out.update(arc_vertices(g, h, r))
    return frozenset(out)


def sphere_edges(g, v0, r):
    """Tree edges whose nearer endpoint lies at distance r from the root."""
    out = set()
    for h in g.out(v0):
        out.update(arc_edges(g, h, r))
    return frozenset(out)


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
    for k, layer in enumerate(_tube_layers(g, seen, r)):
        if k == r:
            return frozenset(layer)
    raise AssertionError("unreachable")


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
    for k, layer in enumerate(_tube_layers(g, {center}, r)):
        if k == r:
            return frozenset(layer)
    raise AssertionError("unreachable")


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


def graph_average(f):
    """Mean of the field over the whole base graph."""
    return math.fsum(f.values) / len(f.values)


def part_average(f, part):
    """Mean of a vertex field over a vertex subset."""
    return math.fsum(f.values[v] for v in part) / len(part)


def _expected_length(g, support):
    return g.vertex_count if support == VERTICES else g.edge_count


def check_field(g, f, support=None):
    if support is not None and f.support != support:
        raise SupportMismatchError(f"need a field on {support}, got one on {f.support}")
    if len(f.values) != _expected_length(g, f.support):
        raise SupportMismatchError(
            f"field length {len(f.values)} does not match the graph's {f.support}"
        )


def set_average(f, elements):
    """Mean of the lifted field over a set of cover vertices or cover edges."""
    elements = list(elements)
    if not elements:
        raise EmptySetError("cannot average over an empty set")
    first = elements[0]
    if isinstance(first, CoverVertex):
        if f.support != VERTICES:
            raise SupportMismatchError("vertex set needs a vertex field")
        total = math.fsum(f.values[cv.vertex] for cv in elements)
    elif isinstance(first, CoverEdge):
        if f.support != EDGES:
            raise SupportMismatchError("edge set needs an edge field")
        total = math.fsum(f.values[ce.edge] for ce in elements)
    else:
        raise SupportMismatchError(f"cannot average over {type(first).__name__}")
    return total / len(elements)


# --- non-backtracking transfer step over half-edges ---
#
# The number of non-backtracking paths of length L >= 1 that start with a given
# half-edge, ending with half-edge h, evolves by the exact integer step below.
# Arc averages are uniform over paths, so sums weighted by these counts
# reproduce brute-force enumeration exactly.

def _nb_count_step(g, counts):
    out = [0] * g.half_edge_count
    for h, c in enumerate(counts):
        if c:
            for h2 in g.continuations(h):
                out[h2] += c
    return out


def arc_vertex_count(g, base, r):
    """|A_r(base)| by exact integer counting."""
    if r == 0:
        return 1
    counts = [0] * g.half_edge_count
    counts[base] = 1
    for _ in range(r - 1):
        counts = _nb_count_step(g, counts)
    return sum(counts)


def arc_edge_count(g, base, r):
    """|A'_r(base)| by exact integer counting."""
    return arc_vertex_count(g, base, r + 1)


def arc_vertex_sums(g, f, base, max_radius):
    """Per-radius (size, sum of lifted values) over vertex arcs A_0 .. A_R."""
    check_field(g, f, VERTICES)
    vals = f.values
    sizes = [1]
    sums = [float(vals[g.tail(base)])]
    counts = [0] * g.half_edge_count
    counts[base] = 1
    for _ in range(max_radius):
        sizes.append(sum(counts))
        sums.append(math.fsum(c * vals[g.head(h)] for h, c in enumerate(counts) if c))
        counts = _nb_count_step(g, counts)
    return sizes[: max_radius + 1], sums[: max_radius + 1]


def arc_edge_sums(g, f, base, max_radius):
    """Per-radius (size, sum of lifted values) over edge arcs A'_0 .. A'_R."""
    check_field(g, f, EDGES)
    vals = f.values
    sizes = []
    sums = []
    counts = [0] * g.half_edge_count
    counts[base] = 1
    for _ in range(max_radius + 1):
        sizes.append(sum(counts))
        sums.append(math.fsum(c * vals[g.edge_of(h)] for h, c in enumerate(counts) if c))
        counts = _nb_count_step(g, counts)
    return sizes, sums


def arc_average_transfer(g, f, base, r):
    """Arc average of the lifted field, via the transfer step instead of enumeration.

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
