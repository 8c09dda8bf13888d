"""Finite connected multigraphs with half-edge (twin-paired directed edge) indexing.

Undirected edge k is stored as the half-edge pair (2k, 2k+1), so arcs,
non-backtracking steps and edge-indexed functions all share one index space.
A loop contributes two half-edges at its vertex and therefore 2 to its degree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import (
    CoverError,
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
        # derived data built on first use (classify, cover.transfer_operator,
        # cover's arc enumeration)
        "_classification", "_transfer", "_arc_table",
    )

    def __init__(self, vertex_count, half_edges, *, allows_loops=False, allows_multi=False):
        if vertex_count <= 0:
            raise EmptyGraphError("graph needs at least one vertex")
        half_edges = list(half_edges)
        count = len(half_edges)
        if count % 2 != 0:
            raise TwinPairingError("odd number of half-edges")
        if vertex_count > count // 2 + 1:  # checked before anything is sized by vertex_count
            raise DisconnectedGraphError(
                f"{count // 2} edges cannot connect {vertex_count} vertices")

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
        self._continuations = tuple([
            tuple([h2 for h2 in out[v] if h2 != w]) for v, w in zip(heads, twins)
        ])
        self._classification = None
        self._transfer = None
        self._arc_table = None
        self._check_connected()

    def _check_connected(self):
        reached = self.vertex_count - all_distances(self, 0).count(-1)
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
    """BFS distances from ``v`` to every vertex, -1 where it cannot reach."""
    out, heads = g._out, g.heads
    dist = [-1] * g.vertex_count
    dist[v] = 0
    order = [v]
    for x in order:  # the loop reads the vertices it appends
        d = dist[x] + 1
        for h in out[x]:
            y = heads[h]
            if dist[y] < 0:
                dist[y] = d
                order.append(y)
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
    to a degree-(q+1) vertex in ``part_q`` with p < q.  ``part_p`` is None
    exactly when the graph is not bipartite.
    """

    kind: str
    simple: bool
    q: int | None = None
    p: int | None = None
    part_p: frozenset[int] | None = None
    part_q: frozenset[int] | None = None


def _two_coloring(g):
    """Return (part0, part1) with vertex 0 in part0, or None if not bipartite.

    Part 0 is the vertices at even distance from vertex 0; the graph is
    bipartite iff no half-edge joins two vertices of equal distance parity.
    """
    parity = [d & 1 for d in all_distances(g, 0)].__getitem__
    if not all(map(operator.xor, map(parity, g.tails), map(parity, g.heads))):
        return None
    part0 = frozenset(v for v in range(g.vertex_count) if not parity(v))
    part1 = frozenset(range(g.vertex_count)) - part0
    return part0, part1


def classify(g):
    """Classify a graph by degree structure and bipartiteness; computed once
    per graph and kept on it."""
    if g._classification is None:
        g._classification = _classify(g)
    return g._classification


def _classify(g):
    simple = g.is_simple()
    degs = g.degrees()
    parts = _two_coloring(g)
    d = degs[0]
    # a constant degree below 3 falls through to irregular: both parts have that degree
    if len(set(degs)) == 1 and d >= 3:
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


# --- text formats ---
#
# Every input file (graph, field, geodesic, tube) is a header line that starts
# with its kind and holds a record count, then one line per record.  '#' starts
# a comment; blank lines are ignored.
#
#   graph <vertex_count> <edge_count> [loops] [multi]
#   u v          (one line per undirected edge, 0-based ids)
#
# write_graph/read_graph round-trip bit-exactly.

def read_records(text, kind, usage, count_at, noun, parse):
    """Header tokens and parsed records of an input file of ``kind``.

    Header token ``count_at`` is the number of record lines.  Once they are
    counted, ``parse(header)`` returns the function that turns one line's
    tokens into a record, and a ValueError, GraphError or CoverError that
    function raises becomes a GraphFileError that names the line.  Header
    tokens other than the kind and the count are the caller's to check.
    """
    lines = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    rows = [tokens for tokens in lines if tokens]
    if not rows:
        raise GraphFileError(f"empty {kind} file")
    header = rows[0]
    if header[0] != kind or len(header) <= count_at:
        raise GraphFileError(f"{kind} file must start with '{usage}'")
    try:
        count = int(header[count_at])
    except ValueError as exc:
        raise GraphFileError(f"bad count in {kind} header") from exc
    if len(rows) - 1 != count:
        raise GraphFileError(f"expected {count} {noun} lines, found {len(rows) - 1}")
    records = []
    parse_row = parse(header)
    for row in rows[1:]:
        try:
            records.append(parse_row(row))
        except (ValueError, GraphError, CoverError) as exc:
            number = next(i for i, tokens in enumerate(lines, 1) if tokens is row)
            raise GraphFileError(f"line {number}: bad {noun} '{' '.join(row)}': {exc}") from exc
    return header, records


def write_graph(g):
    header = f"graph {g.vertex_count} {g.edge_count}"
    if g.allows_loops:
        header += " loops"
    if g.allows_multi:
        header += " multi"
    lines = [header]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _edge(row):
    u, v = row
    return int(u), int(v)


def read_graph(text):
    header, edges = read_records(
        text, "graph", "graph <n> <m> [loops] [multi]", 2, "edge", lambda _: _edge)
    flags = header[3:]
    bad = [f for f in flags if f not in ("loops", "multi")]
    if bad:
        raise GraphFileError(f"unknown graph flags: {bad}")
    try:
        n = int(header[1])
    except ValueError as exc:
        raise GraphFileError("bad vertex count in graph header") from exc
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
