"""Enumerated path layers against a matrix reference enumeration.

The reference holds every layer as an (N, depth) matrix and builds the next
one by repeating each row once per continuation of its last half-edge and
appending that continuation, so it copies every earlier column at each
radius.  The path layers keep parent-pointer levels instead; they must give
the same rows in the same order, the same ids and the same average bits.
"""

import math

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
    tube_vertices,
)
from test_graph_core import connected_graphs
from test_transfer import _graphs

RADIUS = 8
ORACLE_GRAPHS = ("k4", "petersen", "k34", "cubic60", "chords", "path", "loops")
DEAD_ENDS = {"pendant": [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], "k13": [(0, 1), (0, 2), (0, 3)]}


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
