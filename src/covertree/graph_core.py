"""Finite connected multigraphs with half-edge (twin-paired directed edge) indexing.

Undirected edge k is stored as the half-edge pair (2k, 2k+1), so arcs,
non-backtracking steps and edge-indexed functions all share one index space.
A loop contributes two half-edges at its vertex and therefore 2 to its degree.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import (
    DisconnectedGraphError,
    EmptyGraphError,
    GraphError,
    GraphFileError,
    IllegalLoopError,
    IllegalMultiEdgeError,
    NotSimpleError,
    TwinPairingError,
    UnknownGeneratorError,
)

REGULAR = "regular"
REGULAR_BIPARTITE = "regular-bipartite"
SEMIREGULAR = "semiregular"
IRREGULAR = "irregular"


class Graph:
    """Immutable connected multigraph over twin-paired half-edges.

    ``half_edges`` is a sequence of ``(tail, head, twin)`` triples.  The twin
    map must be a fixed-point-free involution with ``head(h) == tail(twin(h))``;
    anything else is rejected at construction.
    """

    __slots__ = (
        "vertex_count", "edge_count", "allows_loops", "allows_multi",
        "tails", "heads", "twins",
        "_edge_of", "_edge_pairs", "_out", "_degrees", "_continuations",
    )

    def __init__(self, vertex_count, half_edges, *, allows_loops=False, allows_multi=False):
        if vertex_count <= 0:
            raise EmptyGraphError("graph needs at least one vertex")
        half_edges = list(half_edges)
        count = len(half_edges)
        if count % 2 != 0:
            raise TwinPairingError("odd number of half-edges")

        tails = tuple(t for t, _, _ in half_edges)
        heads = tuple(h for _, h, _ in half_edges)
        twins = tuple(w for _, _, w in half_edges)
        for h in range(count):
            if not (0 <= tails[h] < vertex_count and 0 <= heads[h] < vertex_count):
                raise GraphError(f"half-edge {h} endpoint out of range")
            w = twins[h]
            if not (0 <= w < count) or w == h or twins[w] != h:
                raise TwinPairingError(f"twin map is not an involution at half-edge {h}")
            if heads[h] != tails[w] or tails[h] != heads[w]:
                raise TwinPairingError(f"twin of half-edge {h} does not reverse it")

        # Edge ids follow the order of the lesser half-edge of each pair.
        edge_of = [0] * count
        pairs = []
        for h in range(count):
            if h < twins[h]:
                edge_of[h] = edge_of[twins[h]] = len(pairs)
                pairs.append((tails[h], heads[h]))

        seen = {}
        for k, (u, v) in enumerate(pairs):
            if u == v and not allows_loops:
                raise IllegalLoopError(f"loop at vertex {u} but loops are not allowed")
            key = (u, v) if u <= v else (v, u)
            if key in seen and not allows_multi:
                raise IllegalMultiEdgeError(f"parallel edge {key} but multi-edges are not allowed")
            seen[key] = k

        out = [[] for _ in range(vertex_count)]
        for h in range(count):
            out[tails[h]].append(h)

        self.vertex_count = vertex_count
        self.edge_count = len(pairs)
        self.allows_loops = allows_loops
        self.allows_multi = allows_multi
        self.tails = tails
        self.heads = heads
        self.twins = twins
        self._edge_of = tuple(edge_of)
        self._edge_pairs = tuple(pairs)
        self._out = tuple(tuple(o) for o in out)
        self._degrees = tuple(len(o) for o in out)
        # Non-backtracking continuations of each half-edge, precomputed once.
        self._continuations = tuple(
            tuple(h2 for h2 in self._out[heads[h]] if h2 != twins[h])
            for h in range(count)
        )
        self._check_connected()

    def _check_connected(self):
        seen = [False] * self.vertex_count
        seen[0] = True
        queue = deque([0])
        reached = 1
        while queue:
            v = queue.popleft()
            for h in self._out[v]:
                w = self.heads[h]
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    queue.append(w)
        if reached != self.vertex_count:
            raise DisconnectedGraphError(
                f"only {reached} of {self.vertex_count} vertices reachable from vertex 0"
            )

    # --- accessors ---

    @property
    def half_edge_count(self):
        return 2 * self.edge_count

    def tail(self, h):
        return self.tails[h]

    def head(self, h):
        return self.heads[h]

    def twin(self, h):
        return self.twins[h]

    def edge_of(self, h):
        """Undirected edge id of half-edge ``h``."""
        return self._edge_of[h]

    def edge_endpoints(self, e):
        return self._edge_pairs[e]

    def edges(self):
        return self._edge_pairs

    def out(self, v):
        """Half-edges with tail ``v``, in construction order."""
        return self._out[v]

    def degree(self, v):
        return self._degrees[v]

    def degrees(self):
        return self._degrees

    def continuations(self, h):
        """Half-edges that extend ``h`` without backtracking."""
        return self._continuations[h]

    def edge_degree(self, e):
        """Number of edges meeting edge ``e`` in either endpoint (simple graphs)."""
        if not self.is_simple():
            raise NotSimpleError("edge degree is defined for simple graphs only")
        u, v = self._edge_pairs[e]
        return self._degrees[u] + self._degrees[v] - 2

    def is_simple(self):
        seen = set()
        for u, v in self._edge_pairs:
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    def half_edge(self, u, v, k=0):
        """The k-th half-edge from ``u`` to ``v`` in construction order."""
        if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
            raise GraphError(f"vertex out of range in half-edge spec {u}->{v}")
        matches = [h for h in self._out[u] if self.heads[h] == v]
        if k < 0 or k >= len(matches):
            raise GraphError(f"no half-edge {u}->{v} with parallel index {k}")
        return matches[k]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.vertex_count == other.vertex_count
            and self.tails == other.tails
            and self.heads == other.heads
            and self.twins == other.twins
            and self.allows_loops == other.allows_loops
            and self.allows_multi == other.allows_multi
        )

    def __repr__(self):
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def build_graph(vertex_count, edges, *, allows_loops=False, allows_multi=False):
    """Build a connected Graph from an undirected edge list."""
    half_edges = []
    for u, v in edges:
        h = len(half_edges)
        half_edges.append((u, v, h + 1))
        half_edges.append((v, u, h))
    return Graph(vertex_count, half_edges, allows_loops=allows_loops, allows_multi=allows_multi)


def all_distances(g, v):
    """BFS distances from ``v`` to every vertex."""
    dist = [-1] * g.vertex_count
    dist[v] = 0
    queue = deque([v])
    while queue:
        x = queue.popleft()
        for h in g.out(x):
            y = g.head(h)
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def distance(g, v, w):
    """Combinatorial distance between two vertices."""
    return all_distances(g, v)[w]


@dataclass(frozen=True)
class Classification:
    """Structural class of a graph: regular / regular-bipartite / semiregular / irregular.

    For the regular kinds ``q + 1`` is the common degree and q >= 2 is required
    (degree at least 3); constant-degree graphs below that report as irregular.
    For semiregular graphs every edge joins a degree-(p+1) vertex in ``part_p``
    to a degree-(q+1) vertex in ``part_q`` with p < q.
    """

    kind: str
    simple: bool
    q: int | None = None
    p: int | None = None
    part_p: frozenset[int] | None = None
    part_q: frozenset[int] | None = None

    def is_bipartite(self):
        return self.part_p is not None


def _two_coloring(g):
    """Return (part0, part1) with vertex 0 in part0, or None if not bipartite."""
    color = [-1] * g.vertex_count
    color[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for h in g.out(v):
            w = g.head(h)
            if color[w] < 0:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                return None
    part0 = frozenset(v for v in range(g.vertex_count) if color[v] == 0)
    part1 = frozenset(range(g.vertex_count)) - part0
    return part0, part1


def classify(g):
    """Classify a graph by degree structure and bipartiteness."""
    simple = g.is_simple()
    degs = g.degrees()
    parts = _two_coloring(g)
    constant = len(set(degs)) == 1

    if constant:
        d = degs[0]
        if d < 3:
            return Classification(IRREGULAR, simple,
                                  part_p=parts[0] if parts else None,
                                  part_q=parts[1] if parts else None)
        if parts is None:
            return Classification(REGULAR, simple, q=d - 1)
        return Classification(REGULAR_BIPARTITE, simple, q=d - 1, p=d - 1,
                              part_p=parts[0], part_q=parts[1])

    if parts is not None:
        deg_sets = [{degs[v] for v in part} for part in parts]
        if all(len(s) == 1 for s in deg_sets):
            d0, d1 = deg_sets[0].pop(), deg_sets[1].pop()
            if d0 != d1 and min(d0, d1) >= 2:
                lo_part, hi_part = (parts[0], parts[1]) if d0 < d1 else (parts[1], parts[0])
                return Classification(SEMIREGULAR, simple,
                                      p=min(d0, d1) - 1, q=max(d0, d1) - 1,
                                      part_p=lo_part, part_q=hi_part)
    return Classification(IRREGULAR, simple,
                          part_p=parts[0] if parts else None,
                          part_q=parts[1] if parts else None)


def line_graph(g):
    """Graph on the edges of ``g``; adjacency is sharing an endpoint.

    Requires a simple input.  Vertex k of the result is edge k of ``g``,
    so its degree equals the edge degree of that edge.
    """
    if not g.is_simple():
        raise NotSimpleError("line graph requires a simple graph")
    lg_edges = []
    for v in range(g.vertex_count):
        incident = sorted({g.edge_of(h) for h in g.out(v)})
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                lg_edges.append((incident[i], incident[j]))
    return build_graph(g.edge_count, lg_edges)


# --- generators ---

def _complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _complete_bipartite(m, n):
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]            # outer cycle
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]   # inner pentagram
    edges += [(i, 5 + i) for i in range(5)]                 # spokes
    return build_graph(10, edges)


def _cycle_with_chords(n, *chord_ends):
    if len(chord_ends) % 2 != 0:
        raise UnknownGeneratorError("chords must be given as vertex pairs")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(chord_ends[i], chord_ends[i + 1]) for i in range(0, len(chord_ends), 2)]
    return build_graph(n, edges)


_GENERATORS = {
    "complete": _complete,
    "complete_bipartite": _complete_bipartite,
    "petersen": _petersen,
    "cycle_with_chords": _cycle_with_chords,
}


def generate(name, *params):
    """Build a named generator graph, e.g. generate("complete_bipartite", 3, 4)."""
    try:
        factory = _GENERATORS[name]
    except KeyError:
        raise UnknownGeneratorError(
            f"unknown generator {name!r}; available: {', '.join(sorted(_GENERATORS))}"
        ) from None
    return factory(*params)


# --- text format ---
#
#   graph <vertex_count> <edge_count> [loops] [multi]
#   u v          (one line per undirected edge, 0-based ids)
#
# '#' starts a comment; blank lines are ignored.  write_graph/read_graph
# round-trip bit-exactly.

def write_graph(g):
    header = f"graph {g.vertex_count} {g.edge_count}"
    if g.allows_loops:
        header += " loops"
    if g.allows_multi:
        header += " multi"
    lines = [header]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_graph(text):
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())
    if not rows:
        raise GraphFileError("empty graph file")
    header = rows[0]
    if header[0] != "graph" or len(header) < 3:
        raise GraphFileError("graph file must start with 'graph <n> <m>'")
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError as exc:
        raise GraphFileError("bad counts in graph header") from exc
    flags = header[3:]
    bad = [f for f in flags if f not in ("loops", "multi")]
    if bad:
        raise GraphFileError(f"unknown graph flags: {bad}")
    if len(rows) - 1 != m:
        raise GraphFileError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise GraphFileError(f"bad edge line: {' '.join(row)}")
        try:
            edges.append((int(row[0]), int(row[1])))
        except ValueError as exc:
            raise GraphFileError(f"bad edge line: {' '.join(row)}") from exc
    return build_graph(n, edges, allows_loops="loops" in flags, allows_multi="multi" in flags)


def read_ascii(path):
    """Text of an input file, which must be ASCII."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GraphFileError(f"{path}: non-ASCII byte at offset {exc.start}") from exc


def load_graph(path):
    return read_graph(read_ascii(path))


def save_graph(g, path):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(write_graph(g))
