"""Transfer series bookkeeping against an independent reference, bit for bit.

The reference below is ``analysis._arc_union`` and the horocycle branch of
``analysis.deviation_series`` as they were before the sizes were counted in
chunks of radii, with the radius cap that replaced the element cap: they
refuse a radius over the cap, count each arc's sizes on their own up to the
first past the float range, turn every size into a float on its own, and
weigh every arc of a union, even a single one.  The library must give the
same sizes, the same average and deviation bits, and the same error type and
message, on every set family.
"""

import functools
import math
import re
import sys

import numpy as np
import pytest

from covertree import analysis, cover, graph_core
from covertree.cli import random_field
from covertree.cover import EDGES, VERTICES
from covertree.errors import (
    BudgetExceededError,
    CovertreeError,
    EmptySetError,
    SizeOutOfRangeError,
)


def reference_sizes(g, base, support, radius):
    """The exact arc sizes at ``base`` to ``radius``, counted one half-edge at a time
    from g.continuations, not from the library's kept rows; a size past the float
    range raises."""
    steps = tuple(tuple(g.continuations(h)) for h in range(g.half_edge_count))
    return list(_counted_sizes(steps, base, support, radius))


@functools.lru_cache(maxsize=64)  # the union tests count each arc for many roots
def _counted_sizes(steps, base, support, radius):
    # A_r has the paths of r half-edges from base, A'_r of r + 1
    sizes, counts = [1] if support == VERTICES else [], {base: 1}
    while len(sizes) <= radius:
        n = sum(counts.values())
        if n > sys.float_info.max:
            raise SizeOutOfRangeError(f"arc at radius {len(sizes)} has about "
                                      f"2**{n.bit_length() - 1} elements; their sum is past "
                                      "the float range")
        sizes.append(n)
        step = {}
        for h, c in counts.items():
            for h2 in steps[h]:
                step[h2] = step.get(h2, 0) + c
        counts = step
    return tuple(sizes)


def reference_arc_union(g, fields, support, bases, radius, cap, what):
    if not bases:
        raise EmptySetError("set at radius 1 is empty")
    if radius > cap:
        raise BudgetExceededError(f"{what} radius {radius} is over the cap {cap}")
    counted = [reference_sizes(g, h, support, radius) for h in bases]
    sizes = [sum(column) for column in zip(*counted)]
    sums_of = cover.arc_vertex_sums if support == cover.VERTICES else cover.arc_edge_sums
    series = [sums_of(g, fields, h, radius)[1] for h in bases]
    if 0 in sizes:
        raise EmptySetError(f"set at radius {sizes.index(0)} is empty")
    means = np.array([sums_b / np.array([float(n) or 1.0 for n in sizes_b])[:, None]
                      for sizes_b, sums_b in zip(counted, series)])
    first = np.array([[n > 0 for n in sizes_b] for sizes_b in counted]).argmax(axis=0)
    centre = means[first, np.arange(radius + 1)]
    if len(bases) == 1:
        return sizes, centre + 0.0
    weights = np.array([[n / total for n, total in zip(sizes_b, sizes)] for sizes_b in counted])
    weights[first, np.arange(radius + 1)] = 0.0
    terms = (weights[..., None] * (means - centre)).transpose(1, 2, 0).tolist()
    return sizes, centre + [[math.fsum(col) for col in row] for row in terms]


def reference_horocycle(g, values, geodesic, radius, cap):
    if radius > cap:
        raise BudgetExceededError(f"horocycle radius {radius} is over the cap {cap}")
    bases = [g.twin(h) for h in geodesic.half_edges]
    counted = {h: reference_sizes(g, h, VERTICES, radius + 1) for h in bases}
    for r in range(radius + 1):
        if counted[bases[r % len(bases)]][r + 1] == 0:
            raise EmptySetError(f"horocycle at radius {r} is empty")
    series = {h: cover.arc_vertex_sums(g, values, h, radius + 1)[1] for h in counted}
    pieces = [bases[r % len(bases)] for r in range(radius + 1)]
    sizes = [counted[h][r + 1] for r, h in enumerate(pieces)]
    averages = (np.array([series[h][r + 1] for r, h in enumerate(pieces)])
                / np.array([float(n) for n in sizes])[:, None])
    return sizes, averages


def _outcome(run):
    """Sizes and the bits of averages, targets and deviations of the report, in a
    list, or the error's type and message.  Deviations must be |average - target|,
    as the reference's report computed them."""
    try:
        rep = run()
    except CovertreeError as exc:
        return type(exc).__name__, str(exc)
    assert rep.deviations == [abs(a - t) for a, t in zip(rep.averages, rep.targets)]
    return [(rep.sizes, *(np.array(xs, dtype=float).tobytes()
                          for xs in (rep.averages, rep.targets, rep.deviations)))]


def _assert_same_as_reference(monkeypatch, g, f, **kwargs):
    """The series equals the one the reference union gives, bit for bit."""
    run = lambda: analysis.deviation_series(g, f, **kwargs)  # noqa: E731
    got = _outcome(run)

    def reference_union(g, values, union, radius, cap):
        # the families the reference unions have one piece list at every radius
        sizes, averages = reference_arc_union(g, values, union.support, list(union.pieces[0]),
                                              radius, cap, union.what)
        if union.zero is not None:  # the family's own radius 0
            sizes[0], averages[0] = len(union.zero), cover.part_average(values, union.zero)
        return sizes, averages

    with monkeypatch.context() as m:
        m.setattr(analysis, "_union_series", reference_union)
        assert _outcome(run) == got, kwargs
    return got


def _star(g, v):
    root = cover.cover_root(g, v)
    return [root] + cover.cover_children(g, root)


def _triangle_tube(k4):
    walk = [k4.half_edge(0, 1), k4.half_edge(1, 2), k4.half_edge(2, 0)]
    return [cover.cover_vertex(k4, 0, walk[:n]) for n in range(4)]


GRAPHS = {
    "k4": lambda: graph_core.generate("complete", 4),
    "petersen": lambda: graph_core.generate("petersen"),
    "k34": lambda: graph_core.generate("complete_bipartite", 3, 4),
    "path": lambda: graph_core.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "loops": lambda: graph_core.build_graph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)],
                                            allows_loops=True, allows_multi=True),
}
# around the 64-radius chunks that counting once took, and as deep as the benchmark's series
RADII = (2, 3, 63, 64, 65, 129, 900)
DEEP = 10 ** 300


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("radius", RADII)
def test_arc_series_match_the_reference(name, radius, monkeypatch):
    g = GRAPHS[name]()
    fv, fe = random_field(g, VERTICES, 11), random_field(g, EDGES, 12)
    zero = cover.constant_field(g, VERTICES, -0.0)  # a single arc averages to +0.0
    bases = range(g.half_edge_count) if radius < 900 else (0, g.half_edge_count - 1)
    for base in bases:
        for f in (fv, fe, zero):
            _assert_same_as_reference(monkeypatch, g, f, set_kind="arc", radius=radius,
                                      base=base, budget=DEEP)


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("radius", RADII)
def test_union_series_match_the_reference(name, radius, monkeypatch):
    g = GRAPHS[name]()
    fv, fe = random_field(g, VERTICES, 14), random_field(g, EDGES, 15)
    for v in range(g.vertex_count if radius < 900 else 1):
        for f, kind in ((fv, "sphere"), (fe, "edge-sphere")):
            _assert_same_as_reference(monkeypatch, g, f, set_kind=kind, radius=radius, root=v,
                                      budget=DEEP)
        for f in (fv, fe):
            _assert_same_as_reference(monkeypatch, g, f, set_kind="tube", radius=radius,
                                      subtree=_star(g, v), budget=DEEP)


@pytest.mark.parametrize("radius", RADII)
def test_triangle_tube_with_its_repeated_boundary_matches_the_reference(k4, radius, monkeypatch):
    members = _triangle_tube(k4)
    for f in (random_field(k4, VERTICES, 17), random_field(k4, EDGES, 18)):
        got = _assert_same_as_reference(monkeypatch, k4, f, set_kind="tube", radius=radius,
                                        subtree=members, budget=DEEP)
        assert isinstance(got, list)


def test_deep_series_average_and_dead_ends_fail_alike(monkeypatch, petersen):
    # the comparisons above must reach real deep averages and real empty sets
    fv = random_field(petersen, VERTICES, 11)
    assert isinstance(_assert_same_as_reference(monkeypatch, petersen, fv, set_kind="arc",
                                                radius=900, base=0, budget=DEEP), list)
    path = GRAPHS["path"]()
    got = _assert_same_as_reference(monkeypatch, path, random_field(path, VERTICES, 1),
                                    set_kind="sphere", radius=64, root=0, budget=DEEP)
    assert got == ("EmptySetError", "set at radius 5 is empty")


BUDGETS = [
    # (kind, anchor, cap, radius, message, or None where the series runs)
    ("arc", {"base": 0}, 0, 50, "arc radius 50 is over the cap 0"),
    ("sphere", {"root": 0}, 2, 50, "sphere radius 50 is over the cap 2"),
    # |A_r| = 2**(r - 1) on Petersen: the cap bounds the radius, not the sizes
    ("arc", {"base": 0}, 10 ** 18, 900, None),
    ("tube", {"subtree": None}, 10 ** 18, 900, None),
    # under a cap that allows any radius, counting stops past the float range
    ("arc", {"base": 0}, DEEP, 10 ** 8,
     "arc at radius 1025 has about 2**1024 elements; their sum is past the float range"),
    ("sphere", {"root": 0}, DEEP, 10 ** 8,
     "arc at radius 1025 has about 2**1024 elements; their sum is past the float range"),
]


@pytest.mark.parametrize("kind,anchor,cap,radius,message", BUDGETS)
def test_budgets_fail_as_the_reference_does(petersen, monkeypatch, kind, anchor, cap, radius,
                                            message):
    anchor = {k: v if v is not None else _star(petersen, 0) for k, v in anchor.items()}
    f = random_field(petersen, VERTICES, 19)
    got = _assert_same_as_reference(monkeypatch, petersen, f, set_kind=kind, radius=radius,
                                    budget=cap, **anchor)
    if message is None:
        assert isinstance(got, list) and got[0][0][-1] > cap
    else:
        assert got[1] == message


@pytest.mark.parametrize("radius", (2, 63, 64, 65, 300))
@pytest.mark.parametrize("cap", (1, 100, 10 ** 40, DEEP))
def test_horocycles_match_the_reference(k4, petersen, radius, cap):
    # periods 3, 5 and 9, none dividing 64 (an old counting chunk); on the irregular
    # 9-cycle with two chords the pieces' sizes differ from base to base
    chords = graph_core.generate("cycle_with_chords", 9, 0, 4, 2, 7)
    cases = [(k4, (0, 1, 2, 0), (20,)), (petersen, (0, 1, 2, 3, 4, 0), (21, 22)),
             (chords, tuple(range(9)) + (0,), (23,))]
    for g, walk, seeds in cases:
        geo = cover.GeodesicSpec(tuple(g.half_edge(u, v) for u, v in zip(walk, walk[1:])))
        # the reference runs the fields as columns of one array, the library one by one
        fields = [random_field(g, VERTICES, s) for s in seeds]
        try:
            want = reference_horocycle(g, np.array([f.values for f in fields]).T, geo,
                                       radius, cap)
        except CovertreeError as exc:
            for f in fields:
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    analysis.deviation_series(g, f, set_kind="horocycle", radius=radius,
                                              geodesic=geo, budget=cap)
            continue
        for j, f in enumerate(fields):
            rep = analysis.deviation_series(g, f, set_kind="horocycle", radius=radius,
                                            geodesic=geo, budget=cap)
            assert rep.sizes == want[0]
            assert np.array(rep.averages).tobytes() == want[1][:, j].tobytes()


def test_horocycle_budget_at_a_huge_radius_matches_the_reference(petersen):
    # radius 10**8 is over the default cap; under a cap that allows it, the
    # arcs' sizes pass the float range at arc radius 1025
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    f = random_field(petersen, VERTICES, 23)
    for cap, error in ((None, BudgetExceededError), (DEEP, SizeOutOfRangeError)):
        with pytest.raises(error) as want:
            reference_horocycle(petersen, f.values[:, None], geo, 10 ** 8,
                                analysis.DEFAULT_BUDGET if cap is None else cap)
        with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
            analysis.deviation_series(petersen, f, set_kind="horocycle", radius=10 ** 8,
                                      geodesic=geo, budget=cap)


# --- empty sets are found before any transfer ---

def test_dead_end_fails_before_any_transfer(monkeypatch):
    path = GRAPHS["path"]()

    def no_transfer(*args, **kwargs):
        raise AssertionError("a transfer ran for an empty set")

    monkeypatch.setattr(cover, "arc_vertex_sums", no_transfer)
    monkeypatch.setattr(cover, "arc_edge_sums", no_transfer)
    for kind, f in (("sphere", random_field(path, VERTICES, 1)),
                    ("edge-sphere", random_field(path, EDGES, 1))):
        with pytest.raises(EmptySetError, match="set at radius [45] is empty"):
            analysis.deviation_series(path, f, set_kind=kind, radius=10 ** 6, root=0)
        # a radius over the cap is refused before the dead end is counted
        with pytest.raises(BudgetExceededError, match="radius 100000000 is over the cap"):
            analysis.deviation_series(path, f, set_kind=kind, radius=10 ** 8, root=0)
    # the field spans past the float range, which the transfer would report;
    # the empty set is found first
    wide = cover.ScalarField(VERTICES, [1e308, -1e308, 0.0, 0.0, 0.0])
    with pytest.raises(EmptySetError, match="set at radius 5 is empty"):
        analysis.deviation_series(path, wide, set_kind="sphere", radius=9, root=0)


def test_sizes_past_the_float_range_match_the_reference(petersen, monkeypatch):
    f = random_field(petersen, VERTICES, 24)
    got = _assert_same_as_reference(monkeypatch, petersen, f, set_kind="arc", radius=1100,
                                    base=0, budget=10 ** 400)
    assert got[0] == "SizeOutOfRangeError" and "radius 1025" in got[1]
    # an edge arc of radius r has the paths of r + 1 half-edges: 2**1024 at r = 1024
    fe = random_field(petersen, EDGES, 25)
    got = _assert_same_as_reference(monkeypatch, petersen, fe, set_kind="edge-sphere",
                                    radius=1100, root=0, budget=10 ** 400)
    assert got == ("SizeOutOfRangeError", "arc at radius 1024 has about 2**1024 elements; "
                   "their sum is past the float range")
    got = _assert_same_as_reference(monkeypatch, petersen, f, set_kind="sphere", radius=1024,
                                    root=0, budget=10 ** 400)
    assert got[0][0][-1] == 3 * 2 ** 1023


# --- set averages ---

def test_set_average_past_the_float_range_raises(k4):
    f = cover.ScalarField(VERTICES, [1.5e308] * 4)
    sphere = cover.sphere_vertices(k4, 0, 2)
    with pytest.raises(SizeOutOfRangeError,
                       match=re.escape("the sum of 6 field values is past the float range")):
        cover.set_average(f, sphere)


# --- edge arcs ---

def test_edge_arcs_build_one_layer_per_radius(petersen, monkeypatch):
    built = []

    class Counting(cover.PathLayer):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[3])
            super().__init__(*args)

    monkeypatch.setattr(cover, "PathLayer", Counting)
    layers = list(cover.arc_edge_layers(petersen, 0, 8))
    assert len(layers) == 9 and built == [EDGES] * 9
    assert [len(layer) for layer in layers] == [2 ** r for r in range(9)]
