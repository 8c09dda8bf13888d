"""Enumerated path layers against a matrix reference enumeration.

The reference holds every layer as an (N, depth) matrix and builds the next
one by repeating each row once per continuation of its last half-edge and
appending that continuation, so it copies every earlier column at each
radius.  The path layers keep parent-pointer levels instead; they must give
the same rows in the same order, the same ids and the same average bits.  A
level whose parents all have one fan-out c stores c instead of its parent
indices; on regular and semiregular graphs every level must.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings

from covertree import cover, graph_core
from covertree.cli import random_field
from covertree.cover import (
    EDGES,
    VERTICES,
    GeodesicSpec,
    arc_edge_layers,
    arc_edges,
    arc_vertex_layers,
    arc_vertices,
    horocycle_subset,
    set_average,
    tube_edges,
    tube_vertices,
)
from test_cover import _closed_walk, _random_subtree
from test_graph_core import connected_graphs
from test_transfer import _graphs

RADIUS = 8
ORACLE_GRAPHS = ("k4", "petersen", "k34", "cubic60", "chords", "path", "loops")
DEAD_ENDS = {"pendant": [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], "k13": [(0, 1), (0, 2), (0, 3)]}
UNIFORM = ("k34", "k25", "petersen", "cubic60")  # one fan-out per level everywhere
MIXED = ("chords", "path", "loops", *DEAD_ENDS)   # levels with parents of two fan-outs, or c = 0


class ReferenceTable:
    """Continuations of every half-edge as a CSR table."""

    def __init__(self, g):
        self.counts = np.array([len(g.continuations(h)) for h in range(g.half_edge_count)],
                               dtype=np.intp)
        self.starts = np.cumsum(self.counts) - self.counts
        self.steps = np.array([x for h in range(g.half_edge_count) for x in g.continuations(h)],
                              dtype=np.intp)

    def extend(self, paths):
        """The paths one half-edge longer, in the order of their parents."""
        last = paths[:, -1]
        parent = np.repeat(np.arange(len(paths)), self.counts[last])
        first = self.starts[last][parent]
        # rank of each new row among the continuations of its parent
        rank = np.arange(len(parent)) - np.searchsorted(parent, parent)
        return np.column_stack([paths[parent], self.steps[first + rank]])

    def descend(self, paths, k):
        for _ in range(k):
            paths = self.extend(paths)
        return paths


def reference_arc(g, base, max_radius):
    """The rows of the vertex arcs A_0 .. A_R of ``base``, one matrix each."""
    table = ReferenceTable(g)
    out = [np.empty((1, 0), dtype=np.intp)]
    paths = np.array([[base]], dtype=np.intp)
    for r in range(1, max_radius + 1):
        if r > 1:
            paths = table.extend(paths)
        out.append(paths)
    return out


def _rows(paths, depth):
    return np.array(paths, dtype=np.intp).reshape(len(paths), depth)


def reference_upward(g, table, cv, r):
    """The blocks of the upward branch of ``cv`` at distance r."""
    path, d = cv.path, cv.depth
    blocks = []
    for j in range(1, min(r, d) + 1):
        above = path[:d - j]
        if j == r:
            blocks.append(_rows([above], d - j))
        else:
            steps = g.continuations(above[-1]) if above else g.out(cv.root)
            rows = [above + (h,) for h in steps if h != path[d - j]]
            blocks.append(table.descend(_rows(rows, d - j + 1), r - j - 1))
    return blocks


def reference_tube(g, members, r):
    """The blocks of the tube of radius r >= 1 around a connected subtree."""
    seen, top = cover.validate_subtree(g, members)
    paths = {cv.path for cv in seen}
    boundary = {}
    for path in paths:
        for h in (g.continuations(path[-1]) if path else g.out(top.root)):
            if path + (h,) not in paths:
                boundary.setdefault(len(path) + 1, []).append(path + (h,))
    table = ReferenceTable(g)
    blocks = [table.descend(_rows(rows, depth), r - 1) for depth, rows in boundary.items()]
    return blocks + reference_upward(g, table, top, r)


def reference_horocycle(g, geodesic, r):
    return reference_upward(g, ReferenceTable(g), geodesic.vertex_at(g, r + 1), r + 1)


def _assert_reference_rows(f, layer, want):
    """``layer`` holds the blocks ``want`` row for row, and projects and
    averages as they do, bit for bit."""
    assert len(layer.blocks) == len(want)
    for got, rows in zip(layer.blocks, want):
        assert got.dtype == np.intp and np.array_equal(got, rows)
    at = np.array(layer.g.heads if layer.support == VERTICES else
                  [layer.g.edge_of(h) for h in range(layer.g.half_edge_count)], dtype=np.intp)
    ids = np.concatenate([np.empty(0, np.intp)] + [
        at[rows[:, -1]] if rows.shape[1] else np.full(len(rows), layer.root) for rows in want])
    assert len(layer) == len(ids) and np.array_equal(layer.ids(), ids)
    if len(ids):
        assert set_average(f, layer) == math.fsum(f.values[ids].tolist()) / len(ids)
        return len(ids) > len(f.values) * len(ids).bit_length()  # set_average's size rule


def _assert_arcs_match_reference(g, radius=RADIUS):
    fv, fe = random_field(g, VERTICES, 51), random_field(g, EDGES, 52)
    for base in range(g.half_edge_count):
        want = reference_arc(g, base, radius + 1)
        for r, layer in enumerate(arc_vertex_layers(g, base, radius)):
            _assert_reference_rows(fv, layer, [want[r]])
        for r, layer in enumerate(arc_edge_layers(g, base, radius)):
            _assert_reference_rows(fe, layer, [want[r + 1]])


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_arc_layers_match_the_matrix_reference(name, seeded_cubic):
    _assert_arcs_match_reference(_graphs(seeded_cubic)[name])


@pytest.mark.parametrize("name", DEAD_ENDS)
def test_arc_layers_with_dead_ends_match_the_matrix_reference(name):
    edges = DEAD_ENDS[name]
    _assert_arcs_match_reference(graph_core.build_graph(max(map(max, edges)) + 1, edges))


@given(connected_graphs(min_vertices=3, max_vertices=7))
@settings(max_examples=25, deadline=None)
def test_arc_layers_match_the_matrix_reference_everywhere(data):
    n, edges = data
    _assert_arcs_match_reference(graph_core.build_graph(n, edges))


def _star(g, cv):
    return [cv] + cover.cover_children(g, cv)


def _graph(name, seeded_cubic):
    if name in DEAD_ENDS:
        edges = DEAD_ENDS[name]
        return graph_core.build_graph(max(map(max, edges)) + 1, edges)
    return _graphs(seeded_cubic)[name]


def _geodesics(g, name, rng):
    """Closed non-backtracking walks, none on a tree; the pendant's random
    walks could run into its dead end, so it gets its triangle."""
    if name == "pendant":
        return [GeodesicSpec(tuple(g.half_edge(i, (i + 1) % 3) for i in range(3)))]
    return [_closed_walk(g, rng) for _ in range(3)] if g.edge_count >= g.vertex_count else []


def _tubes_and_horocycles(g, name):
    """(layer, reference blocks) pairs: tubes of radius 1 .. RADIUS around the
    first vertices and their stars and around random subtrees, some with
    their top below the root, and the horocycle pieces of radius 0 .. RADIUS
    along closed walks."""
    rng = random.Random(name)
    roots = [cover.cover_root(g, v) for v in range(min(g.vertex_count, 5))]
    subtrees = [[cv] for cv in roots] + [_star(g, cv) for cv in roots]
    for members in subtrees + [_random_subtree(g, rng, i % 3) for i in range(6)]:
        for r in range(1, RADIUS + 1):
            yield tube_vertices(g, members, r), reference_tube(g, members, r)
    for geodesic in _geodesics(g, name, rng):
        for r in range(RADIUS + 1):
            yield horocycle_subset(g, geodesic, r), reference_horocycle(g, geodesic, r)


def _parents(layer):
    """The parents of every level of every block of ``layer``."""
    return [parents for _, levels in layer.parts for parents, _ in levels]


@pytest.mark.parametrize("name", UNIFORM)
def test_uniform_levels_store_their_fan_out(name, seeded_cubic):
    # a fallback to the masked gather would store index arrays and fail here
    g = _graph(name, seeded_cubic)
    fv, fe = random_field(g, VERTICES, 56), random_field(g, EDGES, 57)
    layers, sides = [], set()
    for base in range(g.half_edge_count):
        *_, arc = arc_vertex_layers(g, base, RADIUS)
        *_, edge_arc = arc_edge_layers(g, base, RADIUS)
        layers += [arc, edge_arc]
        sides.add(_assert_reference_rows(fe, edge_arc, [reference_arc(g, base, RADIUS + 1)[-1]]))
    for layer, want in _tubes_and_horocycles(g, name):
        layers.append(layer)
        sides.add(_assert_reference_rows(fv, layer, want))
    rng = random.Random(name)
    layers += [tube_edges(g, _random_subtree(g, rng, 2), r) for r in range(RADIUS + 1)]
    parents = [p for layer in layers for p in _parents(layer)]
    assert len(parents) > RADIUS * g.half_edge_count
    assert all(type(p) is int for p in parents)
    assert sides >= {False, True}  # set_average's bits on both sides of its size rule


@pytest.mark.parametrize("name", MIXED)
def test_tubes_and_horocycles_with_mixed_fan_out_match_the_matrix_reference(name, seeded_cubic):
    g = _graph(name, seeded_cubic)
    fv = random_field(g, VERTICES, 58)
    parents = []
    for layer, want in _tubes_and_horocycles(g, name):
        _assert_reference_rows(fv, layer, want)
        parents += _parents(layer)
    dead_ends = 0  # levels of fan-out 0 below a non-empty level
    for base in range(g.half_edge_count):
        *_, arc = arc_vertex_layers(g, base, RADIUS)
        (prefix, levels), = arc.parts
        sizes = [len(prefix)] + [len(last) for _, last in levels]
        dead_ends += sum(type(p) is int and p == 0 and n > 0 for (p, _), n in zip(levels, sizes))
        parents += _parents(arc)
    # the star's levels each have one fan-out, 0 or 2, so it never masks
    assert {type(p) for p in parents} == ({int} if name == "k13" else {int, np.ndarray})
    assert (dead_ends > 0) == (name in ("path", *DEAD_ENDS))


def _nbytes(held):
    if isinstance(held, np.ndarray):
        return held.nbytes
    return sum(map(_nbytes, held)) if isinstance(held, (list, tuple)) else 0


def test_a_wide_star_keeps_one_padded_table():
    # one (H, c) copy per fan-out c up to the width would be H * 999 * 1000 / 2 entries here
    leaves = 999
    g = graph_core.build_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    table = cover._arc_table(g)
    held = _nbytes([getattr(table, slot) for slot in cover._ArcTable.__slots__])
    assert table.padded.shape == (2 * leaves, leaves - 1)
    assert held <= table.padded.nbytes + 3 * g.half_edge_count * table.padded.itemsize
    for r, sphere in enumerate(cover.sphere_vertex_layers(g, 1, 3)):
        assert len(sphere) == [1, 1, leaves - 1, 0][r]
        assert all(type(p) is int for p in _parents(sphere))


def test_tubes_and_horocycles_match_the_matrix_reference(petersen):
    fv = random_field(petersen, VERTICES, 53)
    below = cover.cover_vertex(petersen, 0, [petersen.half_edge(0, 1), petersen.half_edge(1, 2)])
    for members in (_star(petersen, cover.cover_root(petersen, 0)), _star(petersen, below)):
        for r in range(1, RADIUS + 1):
            _assert_reference_rows(fv, tube_vertices(petersen, members, r),
                                   reference_tube(petersen, members, r))
    cycle = GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    for r in range(RADIUS + 1):
        _assert_reference_rows(fv, horocycle_subset(petersen, cycle, r),
                               reference_horocycle(petersen, cycle, r))


def test_len_ids_and_average_read_only_the_last_level(k34, monkeypatch):
    fv, fe = random_field(k34, VERTICES, 54), random_field(k34, EDGES, 55)
    arc, edge_arc = arc_vertices(k34, 0, 12), arc_edges(k34, 0, 12)

    def refuse(block):
        raise AssertionError("the rows were built")

    monkeypatch.setattr(cover, "_materialise", refuse)
    for layer, f, n in ((arc, fv, cover.arc_vertex_count(k34, 0, 12)),
                        (edge_arc, fe, cover.arc_edge_count(k34, 0, 12))):
        assert len(layer) == len(layer.ids()) == n
        set_average(f, layer)
    monkeypatch.undo()
    blocks = arc.blocks
    assert arc.blocks is blocks and all(a is b for a, b in zip(arc.blocks, blocks))
    assert blocks[0].shape == (len(arc), 12) and not blocks[0].flags.writeable
