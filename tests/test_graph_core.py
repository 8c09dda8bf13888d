import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertree.errors import (
    DisconnectedGraphError,
    EmptyGraphError,
    GraphFileError,
    IllegalLoopError,
    IllegalMultiEdgeError,
    NotSimpleError,
    TwinPairingError,
    UnknownGeneratorError,
)
from covertree.graph_core import (
    IRREGULAR,
    REGULAR,
    REGULAR_BIPARTITE,
    SEMIREGULAR,
    Graph,
    build_graph,
    classify,
    distance,
    generate,
    line_graph,
    read_graph,
    write_graph,
)


def connected_graphs(min_vertices=2, max_vertices=8):
    """Random connected simple graphs: a random tree plus extra edges."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_vertices, max_vertices))
        edges = set()
        for v in range(1, n):
            edges.add((draw(st.integers(0, v - 1)), v))
        extra = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=8,
        ))
        for u, v in extra:
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return n, sorted(edges)

    return build()


# --- construction ---

def test_k4_structure(k4):
    assert k4.vertex_count == 4
    assert k4.edge_count == 6
    assert k4.half_edge_count == 12
    assert all(k4.degree(v) == 3 for v in range(4))
    for h in range(12):
        assert k4.twin(k4.twin(h)) == h
        assert k4.head(h) == k4.tail(k4.twin(h))


def test_parallel_edges_degree():
    g = build_graph(2, [(0, 1), (0, 1)], allows_multi=True)
    assert g.degree(0) == 2 and g.degree(1) == 2
    assert g.edge_count == 2


def test_loop_contributes_two():
    g = build_graph(1, [(0, 0)], allows_loops=True)
    assert g.degree(0) == 2


def test_construction_errors():
    with pytest.raises(EmptyGraphError):
        build_graph(0, [])
    with pytest.raises(DisconnectedGraphError):
        build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(IllegalLoopError):
        build_graph(2, [(0, 1), (1, 1)])
    with pytest.raises(IllegalMultiEdgeError):
        build_graph(2, [(0, 1), (1, 0)])


def test_corrupt_twin_pointer_rejected():
    half_edges = [(0, 1, 1), (1, 0, 0), (1, 2, 3), (2, 1, 2)]
    Graph(3, half_edges)  # sanity: the clean version builds
    bad = [(0, 1, 1), (1, 0, 0), (1, 2, 2), (2, 1, 3)]
    with pytest.raises(TwinPairingError):
        Graph(3, bad)
    swapped = [(0, 1, 3), (1, 0, 0), (1, 2, 1), (2, 1, 2)]
    with pytest.raises(TwinPairingError):
        Graph(3, swapped)


@given(connected_graphs())
@settings(max_examples=60, deadline=None)
def test_degree_sum_is_twice_edge_count(data):
    n, edges = data
    g = build_graph(n, edges)
    assert sum(g.degrees()) == 2 * g.edge_count


# --- classification ---

def test_classify_k4(k4):
    cls = classify(k4)
    assert cls.kind == REGULAR and cls.q == 2 and cls.simple
    assert cls.part_p is None


def test_classify_k33(k33):
    cls = classify(k33)
    assert cls.kind == REGULAR_BIPARTITE and cls.q == 2
    assert cls.part_p == frozenset({0, 1, 2})


def test_classify_petersen(petersen):
    cls = classify(petersen)
    assert cls.kind == REGULAR and cls.q == 2


def test_classify_k34(k34):
    cls = classify(k34)
    assert cls.kind == SEMIREGULAR and (cls.p, cls.q) == (2, 3)
    # part_p holds the degree-(p+1) vertices
    assert all(k34.degree(v) == 3 for v in cls.part_p)
    assert all(k34.degree(v) == 4 for v in cls.part_q)
    # constant edge degree p + q, counted directly
    for e in range(k34.edge_count):
        u, v = k34.edges()[e]
        incident = sum(
            1 for other in range(k34.edge_count) if other != e
            and set(k34.edges()[other]) & {u, v}
        )
        assert incident == 5


def test_classify_k23(k23):
    cls = classify(k23)
    assert cls.kind == SEMIREGULAR and (cls.p, cls.q) == (1, 2)


def test_small_degree_graphs_are_irregular():
    cycle = generate("cycle_with_chords", 6)
    assert classify(cycle).kind == IRREGULAR
    chord = generate("cycle_with_chords", 8, 0, 4)
    assert classify(chord).kind == IRREGULAR


def test_classify_loop_multigraph_regular():
    # two vertices joined by three parallel edges: 3-regular, bipartite
    theta = build_graph(2, [(0, 1)] * 3, allows_multi=True)
    assert classify(theta).kind == REGULAR_BIPARTITE
    # one vertex with two loops: 4-regular, and the loops force odd cycles
    bouquet = build_graph(1, [(0, 0), (0, 0)], allows_loops=True, allows_multi=True)
    cls = classify(bouquet)
    assert cls.kind == REGULAR and cls.q == 3
    assert not cls.simple


@given(connected_graphs(), st.randoms())
@settings(max_examples=40, deadline=None)
def test_classify_stable_under_relabeling(data, rng):
    n, edges = data
    perm = list(range(n))
    rng.shuffle(perm)
    g1 = build_graph(n, edges)
    g2 = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
    c1, c2 = classify(g1), classify(g2)
    assert (c1.kind, c1.p, c1.q, c1.simple) == (c2.kind, c2.p, c2.q, c2.simple)


# --- distances ---

def test_distance_basics(k4, k33):
    assert distance(k4, 2, 2) == 0
    assert distance(k33, 0, 1) == 2  # same part, nonadjacent
    assert distance(k33, 0, 4) == 1


def test_petersen_distances_against_walk_matrix(petersen):
    a = np.zeros((10, 10))
    for e in range(petersen.edge_count):
        u, v = petersen.edges()[e]
        a[u, v] = a[v, u] = 1
    reach = np.eye(10)
    expected = np.full((10, 10), -1, dtype=int)
    for k in range(3):
        for i in range(10):
            for j in range(10):
                if expected[i, j] < 0 and reach[i, j] > 0:
                    expected[i, j] = k
        reach = reach @ a
    for i in range(10):
        for j in range(10):
            assert distance(petersen, i, j) == expected[i, j]
    assert expected.max() == 2  # diameter 2


# --- line graph ---

def test_line_graph_k4_is_octahedron(k4):
    lg = line_graph(k4)
    assert lg.vertex_count == 6 and lg.edge_count == 12
    assert all(lg.degree(v) == 4 for v in range(6))


def test_line_graph_path():
    path = build_graph(3, [(0, 1), (1, 2)])
    lg = line_graph(path)
    assert lg.vertex_count == 2 and lg.edge_count == 1


def test_line_graph_k34(k34):
    lg = line_graph(k34)
    assert lg.vertex_count == 12
    assert all(lg.degree(v) == 5 for v in range(12))


def _edge_degree(g, e):
    """Number of edges meeting edge ``e`` in either endpoint (simple graphs)."""
    u, v = g.edges()[e]
    return g.degree(u) + g.degree(v) - 2


def test_line_graph_degree_matches_edge_degree(petersen):
    lg = line_graph(petersen)
    for e in range(petersen.edge_count):
        assert lg.degree(e) == _edge_degree(petersen, e)


def test_line_graph_rejects_multigraph():
    g = build_graph(2, [(0, 1), (0, 1)], allows_multi=True)
    with pytest.raises(NotSimpleError):
        line_graph(g)


def test_regular_edge_degree_constant(k4, petersen):
    for g in (k4, petersen):
        q = classify(g).q
        assert all(_edge_degree(g, e) == 2 * q for e in range(g.edge_count))


# --- generators ---

def test_generate_complete(k4):
    assert k4 == generate("complete", 4)
    assert k4.edges() == tuple(itertools.combinations(range(4), 2))


def test_generate_petersen(petersen):
    assert petersen.vertex_count == 10
    assert petersen.edge_count == 15
    assert all(petersen.degree(v) == 3 for v in range(10))


def test_generate_unknown():
    with pytest.raises(UnknownGeneratorError):
        generate("hypercube", 4)


# --- file format ---

def test_graph_roundtrip(k34):
    text = write_graph(k34)
    again = read_graph(text)
    assert again == k34
    assert write_graph(again) == text


def test_graph_roundtrip_flags():
    g = build_graph(1, [(0, 0)], allows_loops=True)
    text = write_graph(g)
    assert text.splitlines()[0] == "graph 1 1 loops"
    assert read_graph(text) == g


def test_graph_file_comments():
    text = "# made by hand\ngraph 3 2\n0 1  # first\n1 2\n"
    g = read_graph(text)
    assert g.vertex_count == 3 and g.edge_count == 2


@pytest.mark.parametrize("text", [
    "",
    "graph 3\n",
    "graph 3 2 weird\n0 1\n1 2\n",
    "graph 3 2\n0 1\n",
    "graph 3 2\n0 1\n1 2 3\n",
    "graph 3 2\n0 x\n1 2\n",
])
def test_graph_file_errors(text):
    with pytest.raises(GraphFileError):
        read_graph(text)
