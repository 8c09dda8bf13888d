import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertree import cover, graph_core, spectral
from covertree.cli import VERIFY_BLOCK, random_field
from covertree.cover import (
    EDGES,
    VERTICES,
    GeodesicSpec,
    ScalarField,
    arc_average_transfer,
    arc_edge_count,
    arc_edge_layers,
    arc_edges,
    arc_vertex_count,
    arc_vertex_layers,
    arc_vertices,
    constant_field,
    cover_root,
    cover_vertex,
    graph_average,
    horocycle_subset,
    indicator_field,
    read_field,
    read_geodesic,
    set_average,
    sphere_edge_layers,
    sphere_edges,
    sphere_vertices,
    tube_edges,
    tube_vertices,
    write_field,
    write_geodesic,
)
from covertree.errors import (
    CoverError,
    DisconnectedSubtreeError,
    EmptySetError,
    EmptySubtreeError,
    GraphFileError,
    InvalidGeodesicError,
    SizeOutOfRangeError,
    SupportMismatchError,
)
import reference_bfs
from reference_mean import reference_mean
from reference_bfs import busemann_value, cover_neighbors, tree_arc, tree_distance, tree_sphere
from test_graph_core import connected_graphs
from test_transfer import _graphs


def _check_non_backtracking(g, cv):
    rebuilt = cover_vertex(g, cv.root, cv.path)  # raises if the path is bad
    assert rebuilt.vertex == cv.vertex


# --- arcs ---

def test_arc_radius_zero_single_vertex(k4, petersen, k34):
    for g in (k4, petersen, k34):
        for base in (0, 3):
            arc = arc_vertices(g, base, 0)
            assert len(arc) == 1
            assert next(iter(arc)).vertex == g.tail(base)


def test_k4_arc_counts(k4):
    # regular of degree q+1 = 3: |A_r| = q**(r-1)
    for r in range(1, 9):
        assert len(arc_vertices(k4, 0, r)) == 2 ** (r - 1)
        assert arc_vertex_count(k4, 0, r) == 2 ** (r - 1)


def test_k34_arc_counts_alternate(k34):
    base = k34.half_edge(3, 0)  # based at a degree-3 vertex
    assert k34.degree(3) == 3
    sizes = [len(arc_vertices(k34, base, r)) for r in range(5)]
    assert sizes == [1, 1, 3, 6, 18]  # branching q=3, p=2, q=3 after the first step


def test_arc_paths_are_non_backtracking(petersen):
    for layer in arc_vertex_layers(petersen, 5, 5):
        for cv in layer:
            _check_non_backtracking(petersen, cv)


def test_arc_edges_counts(k4):
    assert len(arc_edges(k4, 0, 0)) == 1
    only = next(iter(arc_edges(k4, 0, 0)))
    assert only.edge == k4.edge_of(0)
    assert len(arc_edges(k4, 0, 1)) == 2
    assert len(arc_edges(k4, 0, 3)) == 8
    assert arc_edge_count(k4, 0, 3) == 8


def test_k34_edge_arc_branching(k34):
    base = k34.half_edge(3, 0)
    sizes = [len(arc_edges(k34, base, r)) for r in range(5)]
    # |A'_r| multiplies by q, p, q, p, ... when based on the degree-(p+1) side
    assert sizes == [1, 3, 6, 18, 36]


# --- path layers against the object BFS over cover_neighbors ---

ORACLE_GRAPHS = ("k4", "petersen", "k34", "cubic60", "chords", "path", "loops")


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_path_layers_match_the_object_bfs(name, seeded_cubic):
    g = _graphs(seeded_cubic)[name]
    fv = random_field(g, VERTICES, 41)
    fe = random_field(g, EDGES, 42)
    for base in range(g.half_edge_count):
        tail = cover_root(g, g.tail(base))
        child = cover_vertex(g, tail.root, [base])
        bfs = [tree_arc(g, tail, child, r) for r in range(8)]
        for r, layer in enumerate(arc_vertex_layers(g, base, 6)):
            assert len(layer) == len(bfs[r]) and layer == bfs[r]
            if bfs[r]:
                assert set_average(fv, layer) == math.fsum(
                    fv.values[cv.vertex] for cv in bfs[r]) / len(bfs[r])
        for r, layer in enumerate(arc_edge_layers(g, base, 6)):
            deeper = bfs[r + 1]
            assert len(layer) == len(deeper) and {ce.deeper for ce in layer} == deeper
            edges = [g.edge_of(cv.path[-1]) for cv in deeper]
            assert Counter(ce.edge for ce in layer) == Counter(edges)
            if deeper:
                assert set_average(fe, layer) == math.fsum(fe.values[e] for e in edges) / len(edges)
    for v in range(g.vertex_count):
        for r, sphere in enumerate(cover.sphere_vertex_layers(g, v, 6)):
            assert sphere == sphere_vertices(g, v, r) == tree_sphere(g, cover_root(g, v), r)
        for r, sphere in enumerate(sphere_edge_layers(g, v, 6)):
            bfs = reference_bfs.tube_edges(g, [cover_root(g, v)], r)
            assert len(sphere) == len(bfs) and sphere == sphere_edges(g, v, r) == bfs
            if bfs:
                edges = [ce.edge for ce in bfs]
                want = math.fsum(fe.values[edges].tolist()) / len(edges)
                assert set_average(fe, sphere) == want


def _random_subtree(g, rng, depth):
    """A random connected subtree whose top sits ``depth`` levels below the
    root, or higher where the cover tree ends sooner."""
    top = cover_root(g, rng.randrange(g.vertex_count))
    for _ in range(depth):
        children = cover.cover_children(g, top)
        if not children:
            break
        top = rng.choice(children)
    members = [top]
    for _ in range(rng.randrange(6)):
        fresh = [cv for cv in cover.cover_children(g, rng.choice(members)) if cv not in members]
        if fresh:
            members.append(rng.choice(fresh))
    return members


def _assert_same_layer(f, layer, reference):
    assert len(layer) == len(reference) and layer == reference
    if reference:
        assert set_average(f, layer) == set_average(f, reference)


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_tube_layers_match_the_object_bfs(name, seeded_cubic):
    g = _graphs(seeded_cubic)[name]
    fv = random_field(g, VERTICES, 43)
    fe = random_field(g, EDGES, 45)
    rng = random.Random(name)
    for i in range(20):
        members = _random_subtree(g, rng, i % 5)  # the upward branch needs a top below the root
        bfs = reference_bfs._tube_layers(g, set(members), 6)
        for r, reference in enumerate(bfs):
            _assert_same_layer(fv, tube_vertices(g, members, r), frozenset(reference))
            _assert_same_layer(fe, tube_edges(g, members, r),
                               reference_bfs.tube_edges(g, members, r))
    if name == "path":
        empty = tube_vertices(g, [cover_root(g, 0)], 5)  # past the far end of the path
        assert len(empty) == 0
        with pytest.raises(EmptySetError):
            set_average(fv, empty)


def _closed_walk(g, rng):
    """A closed non-backtracking walk: a random one, cut at its first repeated half-edge."""
    walk = [rng.randrange(g.half_edge_count)]
    while walk[-1] not in walk[:-1]:
        walk.append(rng.choice(g.continuations(walk[-1])))
    return GeodesicSpec(tuple(walk[walk.index(walk[-1]):-1])).validate(g)


@pytest.mark.parametrize("name", [n for n in ORACLE_GRAPHS if n != "path"])  # path: no cycle
def test_horocycle_layers_match_the_object_bfs(name, seeded_cubic):
    g = _graphs(seeded_cubic)[name]
    fv = random_field(g, VERTICES, 44)
    rng = random.Random(name)
    for _ in range(5):
        geo = _closed_walk(g, rng)
        for r in range(7):
            v_r, v_r1 = geo.vertex_at(g, r), geo.vertex_at(g, r + 1)
            _assert_same_layer(fv, horocycle_subset(g, geo, r), tree_arc(g, v_r1, v_r, r + 1))


def test_path_layer_set_behaviour(petersen):
    arc = arc_vertices(petersen, 0, 3)
    objects = frozenset(arc)
    assert len(objects) == len(arc) == 4
    assert all(cv in arc for cv in objects)
    assert cover_root(petersen, 0) not in arc
    assert next(iter(arc_edges(petersen, 0, 2))) not in arc      # an edge is not a vertex
    assert cover_vertex(petersen, 1, [petersen.half_edge(1, 2)]) not in arc_vertices(
        petersen, 0, 1)                                          # same path, other root
    assert arc == objects and objects == arc and arc <= objects
    assert (arc | set()) == objects and isinstance(arc | set(), frozenset)
    with pytest.raises(ValueError):
        arc.blocks[0][0, 0] = 1                                  # read-only rows


# --- spheres ---

def test_sphere_sizes_regular(k4, petersen):
    for g in (k4, petersen):
        q = graph_core.classify(g).q
        assert sphere_vertices(g, 0, 0) == frozenset([cover_root(g, 0)])
        for r in range(1, 7):
            assert len(sphere_vertices(g, 0, r)) == (q + 1) * q ** (r - 1)


def test_edge_sphere_radius_zero(k4):
    assert len(sphere_edges(k4, 0, 0)) == 3
    assert {ce.edge for ce in sphere_edges(k4, 0, 0)} == {k4.edge_of(h) for h in k4.out(0)}


@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_edge_spheres_stack_the_edge_arcs_row_for_row(name, seeded_cubic):
    g = _graphs(seeded_cubic)[name]
    for v in range(g.vertex_count):
        arcs = [list(arc_edge_layers(g, h, 6)) for h in g.out(v)]
        for r, sphere in enumerate(sphere_edge_layers(g, v, 6)):
            blocks = [block for arc in arcs for block in arc[r].blocks]
            assert sphere.root == v and sphere.support == EDGES
            assert len(sphere.blocks) == len(blocks)
            assert all(np.array_equal(a, b) for a, b in zip(sphere.blocks, blocks))
            assert np.array_equal(sphere.ids(), np.concatenate([arc[r].ids() for arc in arcs]))


def test_edge_sphere_series_extends_each_arc_once_per_radius(petersen, monkeypatch):
    calls = []
    extend = cover._ArcTable.extend
    monkeypatch.setattr(cover._ArcTable, "extend",
                        lambda table, last: calls.append(len(last)) or extend(table, last))
    assert len(list(sphere_edge_layers(petersen, 0, 11))) == 12
    assert len(calls) == 3 * 11  # one level per arc per radius past 0
    del calls[:]
    assert len(sphere_edges(petersen, 0, 11)) == 3 * 2 ** 11 and len(calls) == 3 * 11


def test_spheres_of_an_edgeless_vertex_are_empty_past_radius_0():
    g = graph_core.build_graph(1, [])
    spheres, edge_spheres = list(cover.sphere_vertex_layers(g, 0, 3)), list(sphere_edge_layers(g, 0, 3))
    assert len(spheres) == len(edge_spheres) == 4
    assert spheres[0] == frozenset([cover_root(g, 0)])
    for r in range(4):
        assert len(edge_spheres[r]) == len(sphere_edges(g, 0, r)) == 0
        assert len(edge_spheres[r].ids()) == 0
        if r:
            assert len(spheres[r]) == len(sphere_vertices(g, 0, r)) == 0


def test_sphere_is_disjoint_union_of_arcs(petersen):
    for r in range(1, 6):
        union = set()
        total = 0
        for h in petersen.out(0):
            arc = arc_vertices(petersen, h, r)
            total += len(arc)
            union |= arc
        assert len(union) == total
        assert union == sphere_vertices(petersen, 0, r)


def test_projection_consistency(petersen):
    dist = graph_core.all_distances(petersen, 0)
    reached = set()
    for r in range(0, 6):
        for cv in sphere_vertices(petersen, 0, r):
            assert dist[cv.vertex] <= r
            if dist[cv.vertex] == r:
                reached.add((r, cv.vertex))
    # every vertex is reached at exactly its graph distance: shortest paths lift
    for v in range(10):
        assert (dist[v], v) in reached


# --- tubes ---

def test_tube_around_single_vertex_is_sphere(k4):
    root = cover_root(k4, 1)
    for r in range(4):
        assert tube_vertices(k4, [root], r) == sphere_vertices(k4, 1, r)


def test_tube_radius_zero_is_subtree(k4):
    x = [cover_root(k4, 0), cover_vertex(k4, 0, [0])]
    assert tube_vertices(k4, x, 0) == frozenset(x)


def test_tube_two_vertex_counts(k4):
    x = [cover_root(k4, 0), cover_vertex(k4, 0, [0])]
    assert len(tube_vertices(k4, x, 1)) == 4   # 2q
    assert len(tube_vertices(k4, x, 2)) == 8   # 2q * q


def test_tube_matches_bfs_oracle(petersen):
    # oracle: brute-force distances over a ball enumerated with cover_neighbors
    x = [cover_root(petersen, 0), cover_vertex(petersen, 0, [0]),
         cover_vertex(petersen, 0, [0, petersen.half_edge(1, 2)])]
    radius = 4
    dist = {cv: 0 for cv in x}
    frontier = list(x)
    for d in range(1, radius + 1):
        nxt = []
        for cv in frontier:
            for nb in cover_neighbors(petersen, cv):
                if nb not in dist:
                    dist[nb] = d
                    nxt.append(nb)
        frontier = nxt
    for r in range(radius + 1):
        assert tube_vertices(petersen, x, r) == frozenset(
            cv for cv, d in dist.items() if d == r
        )


def test_tube_edges_radius_zero_counts_internal(k4):
    x = [cover_root(k4, 0), cover_vertex(k4, 0, [0])]
    t0 = tube_edges(k4, x, 0)
    # one internal tree edge plus 2q boundary edges
    assert len(t0) == 5
    t1 = tube_edges(k4, x, 1)
    assert len(t1) == 8  # each of the 4 boundary vertices carries q = 2 fresh edges


def test_tube_validation_errors(k4):
    with pytest.raises(EmptySubtreeError):
        tube_vertices(k4, [], 1)
    gap = [cover_root(k4, 0), cover_vertex(k4, 0, [0, k4.half_edge(1, 2)])]
    with pytest.raises(DisconnectedSubtreeError):
        tube_vertices(k4, gap, 1)
    twins = [cover_vertex(k4, 0, [0]), cover_vertex(k4, 0, [2])]
    with pytest.raises(DisconnectedSubtreeError):
        tube_vertices(k4, twins, 1)


# --- geodesics and horocycle subsets ---

def _outer_cycle(petersen):
    return GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))


def test_geodesic_validation(petersen, k4):
    _outer_cycle(petersen).validate(petersen)
    with pytest.raises(InvalidGeodesicError):
        GeodesicSpec(()).validate(petersen)
    broken = GeodesicSpec((petersen.half_edge(0, 1), petersen.half_edge(2, 3)))
    with pytest.raises(InvalidGeodesicError):
        broken.validate(petersen)
    # out-and-back walk backtracks at the wrap-around
    there = k4.half_edge(0, 1)
    back = k4.twin(there)
    with pytest.raises(InvalidGeodesicError):
        GeodesicSpec((there, back)).validate(k4)


def test_horocycle_radius_zero(petersen):
    geo = _outer_cycle(petersen)
    assert horocycle_subset(petersen, geo, 0) == frozenset([cover_root(petersen, 0)])


def test_horocycle_matches_busemann_oracle(petersen):
    geo = _outer_cycle(petersen)
    for r in range(7):
        subset = horocycle_subset(petersen, geo, r)
        v_r = geo.vertex_at(petersen, r)
        oracle = frozenset(
            w for w in tree_sphere(petersen, v_r, r)
            if busemann_value(petersen, geo, w, 2 * r + 1) == 0
        )
        assert subset == oracle
        assert len(subset) == 2 ** r
        for w in subset:
            assert busemann_value(petersen, geo, w, r) == 0
            assert busemann_value(petersen, geo, w, r + 3) == 0


def test_horocycle_members_form_shifted_arc(petersen):
    geo = _outer_cycle(petersen)
    r = 4
    subset = horocycle_subset(petersen, geo, r)
    v_r = geo.vertex_at(petersen, r)
    v_r1 = geo.vertex_at(petersen, r + 1)
    for w in subset:
        assert tree_distance(w, v_r) == r
        assert tree_distance(w, v_r1) == r + 1


def test_tree_distance(petersen):
    geo = _outer_cycle(petersen)
    a = geo.vertex_at(petersen, 3)
    b = geo.vertex_at(petersen, 5)
    assert tree_distance(a, b) == 2
    assert tree_distance(a, a) == 0
    with pytest.raises(ValueError):
        tree_distance(a, cover_root(petersen, 1))


# --- averages ---

def test_constant_field_average(k4):
    f = constant_field(k4, VERTICES, 2.5)
    assert set_average(f, sphere_vertices(k4, 0, 3)) == 2.5


def test_indicator_averages_on_k4(k4):
    f0 = indicator_field(k4, VERTICES, 0)
    assert set_average(f0, sphere_vertices(k4, 0, 1)) == 0.0
    # S_2(0) projects twice onto each of the three non-root vertices
    assert set_average(f0, sphere_vertices(k4, 0, 2)) == 0.0
    f1 = indicator_field(k4, VERTICES, 1)
    assert set_average(f1, sphere_vertices(k4, 0, 2)) == pytest.approx(1 / 3, abs=1e-15)


def test_set_average_errors(k4):
    f = indicator_field(k4, VERTICES, 0)
    with pytest.raises(EmptySetError):
        set_average(f, [])
    with pytest.raises(SupportMismatchError):
        set_average(f, arc_edges(k4, 0, 2))
    fe = indicator_field(k4, EDGES, 0)
    with pytest.raises(SupportMismatchError):
        set_average(fe, arc_vertices(k4, 0, 2))


# --- the one mean ---

def _bits(x):
    return float(x).hex()


def test_mean_of_a_count_expansion_has_the_bits_of_the_plain_list():
    # subnormal to 1e300 in size, both signs, counts to 2**20: fsum rounds the
    # exact total once, and the expansion's exact total is the list's
    rng = random.Random(18)
    for trial in range(300):
        big = trial % 60 == 0
        size = rng.randint(1, 3 if big else 12)
        values = np.array([rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-320, 300)
                           for _ in range(size)])
        counts = np.array([rng.randrange(2 ** (20 if big else rng.randint(0, 12)) + 1)
                           for _ in range(size)])
        counts[rng.randrange(size)] += 1
        plain = np.repeat(values, counts).tolist()
        if not big:  # fsum's result does not depend on the order
            rng.shuffle(plain)
        assert _bits(cover._mean(values, counts)) == _bits(cover._mean(plain))


def _signed_magnitude(rng, low, high):
    """A random float of either sign between 10**low and 10**high, or a signed zero."""
    if rng.random() < 0.1:
        return rng.choice((0.0, -0.0))
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(low, high)


def test_mean_of_counts_to_2_40_is_the_exactly_rounded_total_over_n():
    # counts past 2**26 are split into 26-bit digits; subnormal to 1e300 values
    # of both signs (kept below the bound n * max|x| = 2**1023, past which a
    # multiset's running total is kept exactly), and signed zeros, whose zero
    # totals round to +0.0
    rng = random.Random(20)
    digits = Counter()
    for trial in range(400):
        size = rng.randint(1, 8)
        counts = np.array([rng.randrange(2 ** rng.randint(0, 40) + 1) for _ in range(size)])
        counts[rng.randrange(size)] += 1
        n = int(counts.sum())
        high = min(300, 307 - len(str(n)))
        values = np.array([_signed_magnitude(rng, -320, high) for _ in range(size)])
        digits[n.bit_length() > 26] += 1
        assert _bits(cover._mean(values, counts)) == _bits(reference_mean(values, counts))
    for zeros in ([-0.0], [-0.0, 0.0], [-0.0, 1.0, -1.0]):
        counts = np.arange(3, 3 + len(zeros))
        assert _bits(cover._mean(np.array(zeros), counts)) == _bits(reference_mean(zeros, counts))
    assert digits[True] and digits[False]


def test_mean_given_its_element_count_keeps_its_bits():
    # set_average passes the count it holds as len(ids) rather than summing counts
    rng = random.Random(22)
    for trial in range(200):
        size = rng.randint(1, 8)
        counts = np.array([rng.randrange(2 ** rng.randint(0, 40) + 1) for _ in range(size)])
        counts[rng.randrange(size)] += 1
        values = np.array([_signed_magnitude(rng, -320, 280) for _ in range(size)])
        given = cover._mean(values, counts, cover._split(values), int(counts.sum()))
        assert _bits(given) == _bits(cover._mean(values, counts))


def test_mean_on_both_sides_of_the_float_range_bound():
    # below n * max|x| = 2**1023 the counted form is exact and never raises;
    # from it on, it raises where the list does, which may be where the total fits
    rng = random.Random(21)
    sides = Counter()
    for trial in range(300):
        size = rng.randint(1, 4)
        counts = np.array([rng.randint(1, 5) for _ in range(size)])
        n = int(counts.sum())
        scale = 2.0 ** 1023 / n * rng.uniform(0.5, 1.5)
        values = np.array([rng.choice((-1.0, 1.0)) * scale * rng.uniform(0.5, 1.0)
                           for _ in range(size)])
        past = n * float(np.abs(values).max()) >= 2.0 ** 1023
        sides[past] += 1
        plain = np.repeat(values, counts).tolist()
        try:
            listed = _bits(cover._mean(plain))
        except SizeOutOfRangeError:
            assert past
            with pytest.raises(SizeOutOfRangeError, match=f"the sum of {n} field values"):
                cover._mean(values, counts)
            continue
        assert _bits(cover._mean(values, counts)) == listed == _bits(reference_mean(values, counts))
    assert sides[True] and sides[False]


def test_field_split_is_read_only_and_exact(k4):
    rng = random.Random(22)
    values = [_signed_magnitude(rng, -320, 300) for _ in range(200)] + [5e-324, -2.0 ** 1023]
    f = ScalarField(VERTICES, values)
    top, rest = f.split
    assert not f.split.flags.writeable
    with pytest.raises(ValueError):
        f.split[0, 0] = 1.0
    assert ((top + rest) == f.values).all()
    for x, t, r in zip(f.values.tolist(), top.tolist(), rest.tolist()):
        assert Fraction(t) + Fraction(r) == Fraction(x)
        assert _significant_bits(t) <= 27 and _significant_bits(r) <= 26


def _significant_bits(x):
    """Bits from the highest to the lowest set bit of the float x's significand."""
    m = abs(Fraction(x).numerator)
    return (m >> (m & -m).bit_length() - 1).bit_length() if m else 0


def _size_rule_layers(g, support, radius):
    """Every arc layer of ``support`` at every base, and every vertex sphere, to ``radius``."""
    for h in range(g.half_edge_count):
        yield from (arc_vertex_layers if support == VERTICES else arc_edge_layers)(g, h, radius)
    if support == VERTICES:
        for v in range(g.vertex_count):
            yield from cover.sphere_vertex_layers(g, v, radius)


@pytest.mark.parametrize("name", ["k4", "petersen", "k33", "k34"])
def test_set_average_has_the_bits_of_fsum_on_both_sides_of_the_size_rule(name, request):
    g = request.getfixturevalue(name)
    sides = Counter()
    # a scale of 1e-310 makes every value subnormal
    for support, scale in itertools.product((VERTICES, EDGES), (1.0, 1e300, 1e-310)):
        f = ScalarField(support, random_field(g, support, 41).values * scale)
        for layer in _size_rule_layers(g, support, 11):
            ids, n = layer.ids(), len(layer)
            sides[n > len(f.values) * n.bit_length()] += 1
            assert _bits(set_average(f, layer)) == _bits(math.fsum(f.values[ids].tolist()) / n)
    assert sides[True] and sides[False]


def test_set_average_hands_fsum_the_short_expansion(k34, monkeypatch):
    f = random_field(k34, EDGES, 5)
    layer = next(layer for h in range(k34.half_edge_count)
                 for layer in arc_edge_layers(k34, h, 11) if len(layer) == 23328)
    fsum, lengths = math.fsum, []

    def spy(terms):
        terms = list(terms)
        lengths.append(len(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", spy)
    got = set_average(f, layer)
    monkeypatch.undo()
    assert lengths and lengths[0] <= k34.edge_count * (23328).bit_length()
    assert _bits(got) == _bits(math.fsum(f.values[layer.ids()].tolist()) / 23328)


def test_mean_of_counts_near_2_40_and_values_near_1e300_runs_in_bounded_memory():
    # past n * max|x| = 2**1023 the counted form keeps an exact running total
    # id by id; the listed multiset would be 2**41 floats here
    tracemalloc.start()
    try:
        with pytest.raises(SizeOutOfRangeError, match="the sum of 2199023255557 field values"):
            cover._mean(np.array([1e300, -3e299, 1e-300]), np.array([2**40 + 3, 2**40 - 5, 7]))
        # the total is 0, but the list's running total passes the range first
        with pytest.raises(SizeOutOfRangeError, match="the sum of 2199023255552 field values"):
            cover._mean(np.array([1e300, -1e300]), np.array([2**40, 2**40]))
        cases = [([1e300, 2.5e-300, -1e300], [1, 2**40 - 1, 1]),
                 ([-1e300, 1.5e-300, 5e-324, 1e300], [1, 2**40 + 1, 2**39, 1]),
                 ([3e307, -3e307, 2e307], [3, 3, 1])]
        for values, counts in cases:
            counts = np.array(counts)
            assert int(counts.sum()) * max(map(abs, values)) >= 2.0 ** 1023
            got = cover._mean(np.array(values), counts)
            assert _bits(got) == _bits(reference_mean(values, counts))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


# --- column means of value arrays ---

def _column(rng, kind, n):
    """One column of n values of the kind drawn: 0 exponents spread over
    [-1070, 60], 1 x / -x pairs, 2 such pairs around an exact tie, 3
    subnormals, 4 signed zeros, 5 eigenvector-like, 6 one sign and near the
    largest, whose sums grow fastest, 7 and 8 the largest value just inside
    and just outside n * max|x| < 2**1021."""
    if kind == 0:
        return rng.standard_normal(n) * np.ldexp(1.0, rng.integers(-1070, 61, n))
    if kind in (1, 2):
        half = rng.standard_normal(n // 2) * np.ldexp(1.0, rng.integers(-60, 61, n // 2))
        col = np.concatenate([half, -half, np.zeros(n % 2)])
        if kind == 2 and n > 1:  # x and half an ulp of x: the total is halfway between two floats
            x = rng.standard_normal()
            col[-2:] = x, math.copysign(math.ulp(x) / 2, rng.choice((-1.0, 1.0)))
        return rng.permutation(col)
    if kind == 3:
        return np.ldexp(rng.integers(-7, 8, n).astype(float), rng.integers(-1074, -1060, n))
    if kind == 4:
        return np.full(n, rng.choice((0.0, -0.0)))
    if kind == 5:
        return rng.standard_normal(n) / math.sqrt(n)
    if kind == 6:
        return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0, n) * 2.0 ** rng.integers(-60, 61)
    return _at_the_guard(rng.uniform(-1.0, 1.0, n), rng.integers(n), kind == 8)


def _at_the_guard(col, top, outside):
    """``col``, |values| <= 1, scaled so that col[top], made the largest, puts
    n * max|x| just inside or just outside 2**1021."""
    col[top] = 1.0
    return col * (2.0 ** 1021 / len(col) * (1 + 2.0 ** -40 if outside else 1 - 2.0 ** -40))


def _column_means_both_ways(values):
    """_column_means under its cost rule, and with every block on the array path."""
    with mock.patch.object(cover, "_COLUMN_MEANS_MIN", 0):
        forced = cover._column_means(values)
    return [[_bits(x) for x in means] for means in (cover._column_means(values), forced)]


@given(st.integers(1, 2000), st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(),
       st.data())
@settings(max_examples=40, deadline=None)
def test_column_means_have_the_bits_of_the_column_lists(n, m, seed, outside, data):
    rng = np.random.default_rng(seed)
    kinds = data.draw(st.lists(st.integers(0, 7), min_size=m, max_size=m))
    if outside:  # one column past the guard sends the whole block to the lists
        kinds[rng.integers(m)] = 8
    values = np.column_stack([_column(rng, kind, n) for kind in kinds])
    listed = [_bits(x) for x in map(cover._mean, values.T.tolist())]
    assert _column_means_both_ways(values) == [listed, listed]


def test_column_means_at_the_overflow_guard():
    # with n a power of two, a largest value just past 2**1021 / n would make
    # sigma 2**1024; the guard leaves such blocks to the lists
    rng = np.random.default_rng(25)
    for n in (1, 2, 3, 64, 100, 1024, 1536, 2048):
        for outside in (False, True):
            values = np.column_stack([_at_the_guard(rng.uniform(-1.0, 1.0, n), 0, outside),
                                      rng.standard_normal(n)])
            listed = [_bits(x) for x in map(cover._mean, values.T.tolist())]
            assert _column_means_both_ways(values) == [listed, listed]


def _verify_blocks(lap):
    """The nontrivial eigenvector blocks verify averages, for the Laplacian ``lap``."""
    decomp = spectral.eig_sym(lap)
    mus = np.repeat(decomp.distinct, [b - a for a, b in decomp.group_slices])
    columns = np.flatnonzero(np.abs(mus - 1.0) > spectral.TRIVIAL_EIGENVALUE_TOL)
    return [decomp.basis[:, columns[i:i + VERIFY_BLOCK]]
            for i in range(0, len(columns), VERIFY_BLOCK)]


def test_column_means_of_eigenvector_blocks(petersen, k34, seeded_cubic):
    laplacians = [spectral.vertex_laplacian(seeded_cubic(n, n)) for n in (60, 120, 240)]
    laplacians += [spectral.theorem_laplacian(g, theorem)[0]
                   for g, theorem in ((seeded_cubic(60, 60), 2), (petersen, 2), (k34, 3))]
    arrays = 0
    for lap in laplacians:
        for block in _verify_blocks(lap):
            listed = [_bits(x) for x in map(cover._mean, block.T.tolist())]
            assert _column_means_both_ways(block) == [listed, listed]
            arrays += block.size >= cover._COLUMN_MEANS_MIN
    assert arrays >= 2 + 4 + 8 + 3  # every cubic block takes the array path


def test_mean_past_the_float_range_raises_on_both_list_forms(k4):
    top = 1.5e308
    with pytest.raises(SizeOutOfRangeError, match="the sum of 3 field values"):
        cover._mean(np.array([top, 1.0]), np.array([2, 1]))
    with pytest.raises(SizeOutOfRangeError, match="the sum of 3 field values"):
        cover._mean([top, 1.0, top])
    # one term is +inf and one -inf: fsum itself would raise ValueError
    with pytest.raises(SizeOutOfRangeError, match="the sum of 4 field values"):
        cover._mean(np.array([top, -top]), np.array([2, 2]))
    f = ScalarField(VERTICES, [top] * 4)
    for r in (2, 6):  # 6 elements on 4 ids are listed, 96 are counted
        sphere = sphere_vertices(k4, 0, r)
        assert (len(sphere) > 4 * len(sphere).bit_length()) == (r == 6)
        with pytest.raises(SizeOutOfRangeError, match=f"the sum of {len(sphere)} field values"):
            set_average(f, sphere)


def test_transfer_trivial_radii(k4):
    f = ScalarField(VERTICES, [0.5, -1.0, 2.0, 3.0])
    assert arc_average_transfer(k4, f, 0, 0) == 0.5   # tail of half-edge 0
    assert arc_average_transfer(k4, f, 0, 1) == -1.0  # head
    fe = ScalarField(EDGES, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert arc_average_transfer(k4, fe, 0, 0) == 1.0


def test_transfer_matches_enumeration_on_petersen(petersen):
    from covertree.cli import random_field

    f = random_field(petersen, VERTICES, 12345)
    for base in (0, 7):
        layers = arc_vertex_layers(petersen, base, 10)
        for r, layer in enumerate(layers):
            assert arc_average_transfer(petersen, f, base, r) == pytest.approx(
                set_average(f, layer), abs=1e-12)
    fe = random_field(petersen, EDGES, 54321)
    for r, layer in enumerate(arc_edge_layers(petersen, 3, 8)):
        assert arc_average_transfer(petersen, fe, 3, r) == pytest.approx(
            set_average(fe, layer), abs=1e-12)


@given(connected_graphs(min_vertices=3, max_vertices=7), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_transfer_matches_enumeration_everywhere(data, seed):
    from covertree.cli import random_field

    n, edges = data
    g = graph_core.build_graph(n, edges)
    f = random_field(g, VERTICES, seed)
    base = seed % g.half_edge_count
    for r, layer in enumerate(arc_vertex_layers(g, base, 5)):
        if layer:
            assert arc_average_transfer(g, f, base, r) == pytest.approx(
                set_average(f, layer), abs=1e-12)


def test_transfer_dead_end_raises():
    path = graph_core.build_graph(2, [(0, 1)])
    f = ScalarField(VERTICES, [1.0, 2.0])
    with pytest.raises(EmptySetError):
        arc_average_transfer(path, f, 0, 2)


# --- field & geodesic files ---

def test_field_roundtrip(petersen):
    from covertree.cli import random_field

    f = random_field(petersen, EDGES, 99)
    text = write_field(f)
    again = read_field(text)
    assert again.support == EDGES
    assert list(again.values) == list(f.values)
    assert write_field(again) == text


def test_field_file_errors():
    with pytest.raises(GraphFileError):
        read_field("")
    with pytest.raises(GraphFileError):
        read_field("field vertices 2\n0 1.0\n")
    with pytest.raises(GraphFileError):
        read_field("field faces 1\n0 1.0\n")
    with pytest.raises(GraphFileError):
        read_field("field vertices 2\n0 1.0\n0 2.0\n")


def test_field_rejects_non_finite():
    with pytest.raises(ValueError):
        ScalarField(VERTICES, [1.0, float("nan")])


def test_geodesic_roundtrip(petersen):
    geo = _outer_cycle(petersen)
    text = write_geodesic(petersen, geo)
    again = read_geodesic(petersen, text)
    assert again == geo
    assert write_geodesic(petersen, again) == text


def test_geodesic_file_parallel_index():
    g = graph_core.build_graph(2, [(0, 1), (0, 1)], allows_multi=True)
    geo = read_geodesic(g, "geodesic 2\n0 1 0\n1 0 1\n")
    assert geo.half_edges == (0, 3)
    with pytest.raises(GraphFileError):
        read_geodesic(g, "geodesic 1\n0 1 5\n")


def _tube_star(g):
    return [cover_root(g, 0)] + cover.cover_children(g, cover_root(g, 0))


def _ones(g, support):
    return constant_field(g, support, 1.0)


def _petersen_cycle(g):
    return GeodesicSpec(tuple(g.half_edge(i, (i + 1) % 5) for i in range(5)))


ENTRY_POINTS = {
    "arc_vertex_layers": lambda g, r: list(arc_vertex_layers(g, 0, r)),
    "arc_edge_layers": lambda g, r: list(arc_edge_layers(g, 0, r)),
    "arc_vertices": lambda g, r: arc_vertices(g, 0, r),
    "arc_edges": lambda g, r: arc_edges(g, 0, r),
    "sphere_vertex_layers": lambda g, r: list(cover.sphere_vertex_layers(g, 0, r)),
    "sphere_edge_layers": lambda g, r: list(sphere_edge_layers(g, 0, r)),
    "sphere_vertices": lambda g, r: sphere_vertices(g, 0, r),
    "sphere_edges": lambda g, r: sphere_edges(g, 0, r),
    "tube_vertices": lambda g, r: tube_vertices(g, _tube_star(g), r),
    "tube_edges": lambda g, r: tube_edges(g, _tube_star(g), r),
    "horocycle_subset": lambda g, r: horocycle_subset(g, _petersen_cycle(g), r),
    "arc_vertex_count": lambda g, r: arc_vertex_count(g, 0, r),
    "arc_edge_count": lambda g, r: arc_edge_count(g, 0, r),
    "arc_counts_vertices": lambda g, r: list(cover.arc_counts(g, 0, VERTICES, r)),
    "arc_counts_edges": lambda g, r: list(cover.arc_counts(g, 0, EDGES, r)),
    "arc_vertex_sums": lambda g, r: cover.arc_vertex_sums(g, _ones(g, VERTICES), 0, r),
    "arc_edge_sums": lambda g, r: cover.arc_edge_sums(g, _ones(g, EDGES), 0, r),
    "arc_average_transfer": lambda g, r: arc_average_transfer(g, _ones(g, VERTICES), 0, r),
}


@pytest.mark.parametrize("r", [-1, -2])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_entry_point_refuses_a_negative_radius(name, r, petersen):
    ENTRY_POINTS[name](petersen, 0)  # radius 0 is fine
    with pytest.raises(ValueError, match=r"^radius must be >= 0$"):
        ENTRY_POINTS[name](petersen, r)


ANCHORED = {
    "arc_vertex_layers": ("half-edge", lambda g, i: list(arc_vertex_layers(g, i, 2))),
    "arc_edge_layers": ("half-edge", lambda g, i: list(arc_edge_layers(g, i, 2))),
    "arc_vertices": ("half-edge", lambda g, i: arc_vertices(g, i, 2)),
    "arc_edges": ("half-edge", lambda g, i: arc_edges(g, i, 2)),
    "arc_vertex_count": ("half-edge", lambda g, i: arc_vertex_count(g, i, 2)),
    "arc_edge_count": ("half-edge", lambda g, i: arc_edge_count(g, i, 2)),
    "arc_edge_sums": ("half-edge", lambda g, i: cover.arc_edge_sums(g, _ones(g, EDGES), i, 2)),
    "sphere_vertex_layers": ("vertex", lambda g, i: list(cover.sphere_vertex_layers(g, i, 2))),
    "sphere_edge_layers": ("vertex", lambda g, i: list(sphere_edge_layers(g, i, 2))),
    "sphere_vertices": ("vertex", lambda g, i: sphere_vertices(g, i, 2)),
    "sphere_edges": ("vertex", lambda g, i: sphere_edges(g, i, 2)),
    "cover_vertex": ("vertex", lambda g, i: cover_vertex(g, i, [])),
}


@pytest.mark.parametrize("name", ANCHORED)
def test_anchors_out_of_range_raise_cover_error_naming_the_range(name, petersen):
    kind, call = ANCHORED[name]
    top = petersen.half_edge_count if kind == "half-edge" else petersen.vertex_count
    call(petersen, top - 1)
    for bad in (-1, top):  # -1 would wrap to the last id, ``top`` would raise IndexError
        with pytest.raises(CoverError, match=rf"{kind} {bad} out of range 0 \.\. {top - 1}$"):
            call(petersen, bad)


def test_cover_vertex_validation(k4):
    with pytest.raises(CoverError):
        cover_vertex(k4, 0, [k4.half_edge(1, 2)])  # does not start at the root
    h = k4.half_edge(0, 1)
    with pytest.raises(CoverError):
        cover_vertex(k4, 0, [h, k4.twin(h)])  # backtracks


def test_graph_average_helpers(k33):
    f = indicator_field(k33, VERTICES, 0)
    assert graph_average(f) == pytest.approx(1 / 6)
    assert cover.part_average(f, frozenset({0, 1, 2})) == pytest.approx(1 / 3)
