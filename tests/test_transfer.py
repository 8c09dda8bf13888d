"""The array-backed transfer operator against a big-integer reference step.

The reference counts non-backtracking paths exactly, one half-edge at a time,
with Python integers; the operator must give the same sizes exactly and the
same path-weighted averages to 1e-12, on regular, semiregular, irregular,
dead-end and loop/multi-edge graphs.
"""

import math
import re
import sys
import time
import warnings

import numpy as np
import pytest

from covertree import analysis, cover, graph_core
from covertree.cli import main, random_field
from covertree.cover import EDGES, VERTICES
from covertree.errors import BudgetExceededError, EmptySetError, SizeOutOfRangeError

SIZE_RADIUS = 40
AVERAGE_RADIUS = 60


def reference_counts(g, base, steps):
    """Exact path counts per last half-edge after 0 .. steps steps from ``base``."""
    counts = [0] * g.half_edge_count
    counts[base] = 1
    out = [counts]
    for _ in range(steps):
        nxt = [0] * g.half_edge_count
        for h, c in enumerate(counts):
            if c:
                for h2 in g.continuations(h):
                    nxt[h2] += c
        counts = nxt
        out.append(counts)
    return out


def reference_average(counts, at):
    n = sum(counts)
    return math.fsum(c * at[h] for h, c in enumerate(counts) if c) / n


def _graphs(seeded_cubic):
    return {
        "k4": graph_core.generate("complete", 4),
        "petersen": graph_core.generate("petersen"),
        "k33": graph_core.generate("complete_bipartite", 3, 3),
        "k34": graph_core.generate("complete_bipartite", 3, 4),
        "k25": graph_core.generate("complete_bipartite", 2, 5),
        "cubic60": seeded_cubic(60, 5),
        "chords": graph_core.generate("cycle_with_chords", 9, 0, 4, 2, 7),
        "path": graph_core.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        "loops": graph_core.build_graph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)],
                                        allows_loops=True, allows_multi=True),
    }


GRAPH_NAMES = ("k4", "petersen", "k34", "k25", "cubic60", "chords", "path", "loops")


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_operator_matches_big_integer_reference(name, seeded_cubic):
    _check_against_big_integers(_graphs(seeded_cubic)[name], AVERAGE_RADIUS, SIZE_RADIUS)


@pytest.mark.parametrize("name", ["petersen", "k25"])
def test_operator_matches_big_integer_reference_past_the_repeat(name, seeded_cubic):
    # the float loop copies its rows from step 144 (Petersen) or 80 (K(2,5)) on
    _check_against_big_integers(_graphs(seeded_cubic)[name], 200, 0)


def _check_against_big_integers(g, radius, size_radius):
    """Exact sizes to ``radius`` (``arc_*_count`` to ``size_radius``) and
    averages within 1e-12 of the big-integer reference, at every base."""
    fv = random_field(g, VERTICES, 31)
    fe = random_field(g, EDGES, 32)
    at_vertex = [fv.values[g.head(h)] for h in range(g.half_edge_count)]
    at_edge = [fe.values[g.edge_of(h)] for h in range(g.half_edge_count)]
    worst = 0.0
    for base in range(g.half_edge_count):
        ref = reference_counts(g, base, radius + 1)
        v_sizes, v_sums = cover.arc_vertex_sums(g, fv, base, radius)
        e_sizes, e_sums = cover.arc_edge_sums(g, fe, base, radius)
        # A_r has the paths of r half-edges, A'_r those of r + 1
        assert v_sizes == [1] + [sum(c) for c in ref[:radius]]
        assert e_sizes == [sum(c) for c in ref[:radius + 1]]
        for r in range(size_radius + 1):
            assert cover.arc_vertex_count(g, base, r) == v_sizes[r]
            assert cover.arc_edge_count(g, base, r) == e_sizes[r]
        for r in range(1, radius + 1):
            if v_sizes[r]:
                want = reference_average(ref[r - 1], at_vertex)
                worst = max(worst, abs(v_sums[r] / v_sizes[r] - want))
            else:
                assert v_sums[r] == 0.0
        for r in range(radius + 1):
            if e_sizes[r]:
                want = reference_average(ref[r], at_edge)
                worst = max(worst, abs(e_sums[r] / e_sizes[r] - want))
            else:
                assert e_sums[r] == 0.0
    assert worst <= 1e-12


# --- the float loop stops at an exact repeat of its path distribution ---

def reference_float_averages(op, at, base, n):
    """The transfer's float loop stepped to the end, with no repeat check."""
    cols = at.reshape(op.size, -1)
    centre = cols[base]
    rows = np.ones((len(centre), 2, op.size))
    rows[:, 1] = (cols - centre).T
    p = np.zeros(op.size)
    p[base] = 1.0
    moments = np.empty((n, len(rows), 2))
    for k in range(n):
        if k:
            p = np.ldexp(p, -math.frexp(total)[1] - op.shift)
            p = np.bincount(op.dst, weights=p[op.src], minlength=op.size)
        np.matmul(rows, p, out=moments[k])
        total = moments.item(k, 0, 0)
        if total == 0.0:
            moments = moments[:k]
            break
    out = np.zeros((n, len(rows)))
    out[:len(moments)] = centre + moments[..., 1] / moments[..., 0]
    return out.reshape((n, *at.shape[1:]))


def _steps_of(call):
    """The number of float loop steps in ``call()``, one ``np.bincount`` call each."""
    steps = []
    original = np.bincount

    def counting(*args, **kwargs):
        steps.append(1)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cover.np, "bincount", counting)
        call()
    return len(steps)


REPEAT_GRAPHS = ("k4", "petersen", "k33", "k25", "k34", "cubic60", "chords", "path", "loops")


@pytest.mark.parametrize("name", REPEAT_GRAPHS)
def test_repeat_exit_keeps_every_bit_of_the_stepped_loop(name, seeded_cubic):
    g = _graphs(seeded_cubic)[name]
    op = cover.transfer_operator(g)
    one = random_field(g, VERTICES, 41).values[op.heads]
    three = np.array([random_field(g, EDGES, s).values for s in (42, 43, 44)]).T[op.edges]
    for base in range(g.half_edge_count):
        # one reference run for all four columns: every column of a stacked run
        # has the bits of its own one-column run (test_analysis.py checks this
        # in test_batched_columns_equal_the_per_column_series), and a shorter
        # series is a prefix, since each row needs only earlier steps
        want = reference_float_averages(op, np.column_stack([one, three]), base, 1000)
        last = _steps_of(lambda: op.averages(one, base, 1000))  # 999 if it never stops
        for n in [1000] if last == 999 else [1000, last, last + 1, last + 2]:
            for at, cols in ((one, 0), (three, slice(1, 4))):
                got = op.averages(at, base, n)
                assert got.shape == (n, *at.shape[1:])
                assert got.tobytes() == want[:n, cols].tobytes(), (name, base, n)


def test_repeat_exit_stops_petersen_early_and_k34_never(petersen, k34):
    # Petersen's rescaled distribution repeats with period 1 from step 117;
    # K(3,4)'s does not repeat within 3000 steps
    f = random_field(petersen, VERTICES, 1)
    assert _steps_of(lambda: cover.arc_vertex_sums(petersen, f, 0, 900)) < 200
    f = random_field(k34, EDGES, 1)
    # a step for each of the paths of 2 .. 701 half-edges
    assert _steps_of(lambda: cover.arc_edge_sums(k34, f, 0, 700)) == 700


def test_equitable_partition_is_coarsest_on_regular_and_semiregular(seeded_cubic):
    graphs = _graphs(seeded_cubic)
    for name, classes in (("k4", 1), ("petersen", 1), ("cubic60", 1), ("k34", 2), ("k25", 2)):
        assert len(cover.transfer_operator(graphs[name]).quotient) == classes, name


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_quotient_intertwines_the_operator(name, seeded_cubic):
    # B P = P Q: every member of class i has Q[i][j] continuations in class j
    g = _graphs(seeded_cubic)[name]
    op = cover.transfer_operator(g)
    for h in range(g.half_edge_count):
        tally = {}
        for x in g.continuations(h):
            tally[op.classes[x]] = tally.get(op.classes[x], 0) + 1
        assert tuple(sorted(tally.items())) == op.quotient[op.classes[h]]
    pairs = sorted(zip(op.src.tolist(), op.dst.tolist()))
    assert pairs == sorted((h, x) for h in range(g.half_edge_count) for x in g.continuations(h))


def test_operator_and_classification_are_built_once_and_kept_on_the_graph():
    g = graph_core.generate("petersen")
    assert g._transfer is None and g._classification is None
    f = random_field(g, VERTICES, 1)
    analysis.deviation_series(g, f, set_kind="sphere", radius=4, root=0)
    op, cls = g._transfer, g._classification
    assert op is not None and cls is not None
    analysis.deviation_series(g, f, set_kind="arc", radius=4, base=3)
    assert cover.transfer_operator(g) is op and graph_core.classify(g) is cls


def test_constant_field_averages_exactly_on_every_set_family():
    for g in (graph_core.generate("complete", 4), graph_core.generate("petersen")):
        f = cover.constant_field(g, VERTICES, 1.7)
        fe = cover.constant_field(g, EDGES, -0.3)
        cycle = 3 if g.vertex_count == 4 else 5   # a triangle of K4, the outer 5-cycle
        geo = cover.GeodesicSpec(tuple(g.half_edge(i, (i + 1) % cycle) for i in range(cycle)))
        anchors = [(f, "arc", {"base": 1}), (fe, "arc", {"base": 1}),
                   (f, "sphere", {"root": 0}), (fe, "edge-sphere", {"root": 0}),
                   (f, "tube", {"subtree": _star(g, 0)}), (fe, "tube", {"subtree": _star(g, 0)}),
                   (f, "horocycle", {"geodesic": geo})]
        reports = [analysis.deviation_series(g, field, set_kind=kind, radius=30,
                                             budget=10 ** 40, **anchor)
                   for field, kind, anchor in anchors]
        for report in reports:
            assert all(d == 0.0 for d in report.deviations), report.set_kind


# --- unions of arcs: one arc series per base half-edge ---

def _triangle_tube(k4):
    """The K4 subtree along the closed walk 0 -> 1 -> 2 -> 0."""
    walk = [k4.half_edge(0, 1), k4.half_edge(1, 2), k4.half_edge(2, 0)]
    return [cover.cover_vertex(k4, 0, walk[:n]) for n in range(4)]


@pytest.mark.parametrize("kind,support,anchor", [("sphere", VERTICES, "root"),
                                                 ("edge-sphere", EDGES, "root"),
                                                 ("tube", VERTICES, "subtree"),
                                                 ("tube", EDGES, "subtree")])
def test_union_series_runs_one_arc_series_per_base(petersen, monkeypatch, kind, support, anchor):
    f = random_field(petersen, support, 5)
    name = "arc_vertex_sums" if support == VERTICES else "arc_edge_sums"
    calls = []
    original = getattr(cover, name)

    def counting(g, fields, base, max_radius, sizes=None):
        calls.append(base)
        return original(g, fields, base, max_radius, sizes)

    monkeypatch.setattr(cover, name, counting)
    anchors = {"root": 0, "subtree": _star(petersen, 0)}
    analysis.deviation_series(petersen, f, set_kind=kind, radius=12,
                              **{anchor: anchors[anchor]})
    if kind == "tube":
        bases = analysis._tube_boundary(petersen, anchors["subtree"])[1]
    else:
        bases = petersen.out(0)
    assert calls == list(bases)


def _assert_matches_enumeration(g, f, kind, layer, radius, **anchor):
    report = analysis.deviation_series(g, f, set_kind=kind, radius=radius, **anchor)
    for r in range(radius + 1):
        elements = layer(r)
        assert report.sizes[r] == len(elements), (kind, anchor, r)
        assert abs(report.averages[r] - cover.set_average(f, elements)) <= 1e-12, (kind, anchor, r)


def test_triangle_tube_with_a_repeated_boundary_matches_enumeration(k4):
    members = _triangle_tube(k4)
    _, boundary, _ = analysis._tube_boundary(k4, members)
    assert sorted(boundary) == [0, 2, 4, 4, 8, 10]  # both ends of the walk leave 0 by 0 -> 3
    for seed in (1, 2, 3):
        fv, fe = random_field(k4, VERTICES, seed), random_field(k4, EDGES, seed)
        _assert_matches_enumeration(k4, fv, "tube", lambda r: cover.tube_vertices(k4, members, r),
                                    6, subtree=members)
        _assert_matches_enumeration(k4, fe, "tube", lambda r: cover.tube_edges(k4, members, r),
                                    6, subtree=members)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],  # pendant path
                                   [(0, 1), (0, 2), (0, 3)]])                  # star K(1,3)
def test_spheres_with_dead_ends_match_enumeration(edges):
    # spheres run to their last non-empty radius; the next one is empty on both sides
    g = graph_core.build_graph(max(map(max, edges)) + 1, edges)
    for kind, support, layer in (("sphere", VERTICES, cover.sphere_vertices),
                                 ("edge-sphere", EDGES, cover.sphere_edges)):
        f = random_field(g, support, 7)
        for v in range(g.vertex_count):
            radius = next((r for r in range(1, 10) if not len(layer(g, v, r))), 10) - 1
            if radius < 9:
                with pytest.raises(EmptySetError, match=f"set at radius {radius + 1} is empty"):
                    analysis.deviation_series(g, f, set_kind=kind, radius=9, root=v)
            if radius >= 2:
                _assert_matches_enumeration(g, f, kind, lambda r: layer(g, v, r), radius, root=v)


def test_tube_without_boundary_is_empty_from_radius_1():
    # the star of K(1,3)'s centre holds the whole graph: no tree edge leaves it
    g = graph_core.build_graph(4, [(0, 1), (0, 2), (0, 3)])
    for support in (VERTICES, EDGES):
        with pytest.raises(EmptySetError, match="set at radius 1 is empty"):
            analysis.deviation_series(g, random_field(g, support, 1), set_kind="tube",
                                      radius=4, subtree=_star(g, 0))


# --- horocycles: one series per distinct base ---

def test_horocycle_runs_one_series_per_distinct_base(petersen, monkeypatch):
    f = random_field(petersen, VERTICES, 23)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    radius = 40
    expected = [cover.arc_average_transfer(petersen, f, petersen.twin(geo.half_edge_at(r)), r + 1)
                for r in range(radius + 1)]
    calls = []
    original = cover.arc_vertex_sums

    def counting(g, f, base, max_radius, sizes=None):
        calls.append((base, max_radius))
        return original(g, f, base, max_radius, sizes)

    monkeypatch.setattr(cover, "arc_vertex_sums", counting)
    report = analysis.deviation_series(petersen, f, set_kind="horocycle", radius=radius,
                                       geodesic=geo, budget=10 ** 40)
    assert sorted(calls) == sorted((petersen.twin(h), radius + 1) for h in geo.half_edges)
    assert report.sizes == [2 ** r for r in range(radius + 1)]
    assert max(abs(a - b) for a, b in zip(report.averages, expected)) <= 1e-12


def test_horocycle_budget_names_the_first_radius_over_the_cap(petersen):
    f = random_field(petersen, VERTICES, 23)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    with pytest.raises(BudgetExceededError, match="horocycle at radius 7 has 128 elements"):
        analysis.deviation_series(petersen, f, set_kind="horocycle", radius=2000,
                                  geodesic=geo, budget=100)


def test_horocycle_budget_stops_before_counting_a_huge_radius(petersen):
    # the budget is checked while counting, so counting stops at radius 7
    f = random_field(petersen, VERTICES, 23)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    with pytest.raises(BudgetExceededError, match="horocycle at radius 7 has 128 elements"):
        analysis.deviation_series(petersen, f, set_kind="horocycle", radius=10 ** 8,
                                  geodesic=geo, budget=100)


def _star(g, v):
    root = cover.cover_root(g, v)
    return [root] + cover.cover_children(g, root)


# On Petersen |A_r| = 2**(r - 1) and |A'_r| = 2**r; the star of a vertex has
# four members and six boundary arcs.
BUDGET_CASES = [
    ("arc", VERTICES, "base", "arc at radius 8 has 128 elements (cap 100)"),
    ("sphere", VERTICES, "root", "sphere at radius 7 has 192 elements (cap 100)"),
    ("edge-sphere", EDGES, "root", "edge sphere at radius 6 has 192 elements (cap 100)"),
    ("tube", VERTICES, "subtree", "tube at radius 6 has 192 elements (cap 100)"),
]


@pytest.mark.parametrize("kind,support,anchor,message", BUDGET_CASES)
def test_budget_stops_at_the_first_radius_over_the_cap(petersen, kind, support, anchor, message):
    # the arcs are counted in lockstep, so a huge radius fails after a few steps
    f = random_field(petersen, support, 23)
    anchors = {"base": 0, "root": 0, "subtree": _star(petersen, 0)}
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=re.escape(message)):
        analysis.deviation_series(petersen, f, set_kind=kind, radius=10 ** 8, budget=100,
                                  **{anchor: anchors[anchor]})
    assert time.perf_counter() - start < 1.0


def test_budget_counts_spheres_from_radius_1(petersen):
    # S_0 is the root alone, not the three arcs' shared tail
    f = random_field(petersen, VERTICES, 1)
    with pytest.raises(BudgetExceededError, match=re.escape("sphere at radius 1 has 3 elements")):
        analysis.deviation_series(petersen, f, set_kind="sphere", radius=5, root=0, budget=2)


@pytest.mark.parametrize("kind", ["arc", "sphere", "edge-sphere", "tube"])
def test_average_huge_radius_exits_3_naming_the_radius(kind, tmp_path, capsys, petersen):
    graph = tmp_path / "pet.g"
    graph_core.save_graph(petersen, graph)
    field = tmp_path / "f.fld"
    cover.save_field(random_field(petersen, EDGES if kind == "edge-sphere" else VERTICES, 1),
                     field)
    tube = tmp_path / "star.tube"
    tube.write_text("tube 0 4\n.\n" + "".join(f"{h}\n" for h in petersen.out(0)))
    anchor = {"arc": ["--base", "0", "1"], "sphere": ["--root", "0"],
              "edge-sphere": ["--root", "0"], "tube": ["--tube", str(tube)]}[kind]
    start = time.perf_counter()
    rc = main(["average", "--graph", str(graph), "--field", str(field), "--set", kind,
               "--radius", "100000000", *anchor])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    # the default cap is 10**7 elements
    first = {"arc": 25, "sphere": 23, "edge-sphere": 22, "tube": 22}[kind]
    assert rc == 3
    assert err.startswith(f"error: {kind.replace('-', ' ')} at radius {first} has ")
    assert err.endswith("elements (cap 10000000)\n")


def test_verify_huge_radius_exits_3_naming_the_radius(tmp_path, capsys, monkeypatch, petersen):
    # the budget is checked before the first transfer, so nothing is printed
    monkeypatch.delenv(analysis.BUDGET_ENV_VAR, raising=False)
    graph = tmp_path / "pet.g"
    graph_core.save_graph(petersen, graph)
    start = time.perf_counter()
    rc = main(["verify", "--graph", str(graph), "--theorem", "1", "--radius", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: arc at radius 25 has 16777216 elements (cap 10000000)\n"


# --- sizes past the float range ---

def test_arc_past_float_range_names_the_radius(petersen):
    f = random_field(petersen, VERTICES, 1)
    # |A_r| = 2**(r - 1) on a cubic graph, past the float range from r = 1025
    with pytest.raises(SizeOutOfRangeError, match="radius 1025"):
        analysis.deviation_series(petersen, f, set_kind="arc", radius=1100, base=0,
                                  budget=10 ** 400)
    report = analysis.deviation_series(petersen, f, set_kind="arc", radius=1024, base=0,
                                       budget=10 ** 400)
    assert report.sizes[-1] == 2 ** 1023 and np.isfinite(report.averages).all()


def test_arc_sum_past_float_range_names_the_radius(petersen):
    # the float range ends just below 2**1024: 2**1023 elements fit, a sum of
    # 2.5 for each of them does not
    f = cover.constant_field(petersen, VERTICES, 2.5)
    with pytest.raises(SizeOutOfRangeError, match="arc at radius 1024 .* sum is past"):
        cover.arc_vertex_sums(petersen, f, 0, 1024)
    assert cover.arc_vertex_sums(petersen, f, 0, 1023)[1][-1] == 2.5 * 2.0 ** 1022


def test_sphere_past_float_range_still_averages(petersen):
    # three arcs of 2**1023 elements each: every arc fits a float, their union
    # does not, and the union's average needs no float size
    f = random_field(petersen, VERTICES, 1)
    report = analysis.deviation_series(petersen, f, set_kind="sphere", radius=1024, root=0,
                                       budget=10 ** 400)
    assert report.sizes[-1] == 3 * 2 ** 1023
    arcs = [cover.arc_average_transfer(petersen, f, h, 1024) for h in petersen.out(0)]
    assert report.averages[-1] == pytest.approx(sum(arcs) / 3, abs=1e-12)
    constant = cover.constant_field(petersen, VERTICES, 1.7)
    report = analysis.deviation_series(petersen, constant, set_kind="sphere", radius=1024,
                                       root=0, budget=10 ** 400)
    assert all(a == 1.7 for a in report.averages)


def test_arc_of_values_near_the_float_range_averages():
    # centred on -x, the other values sit 2x = 1.6e308 above; on K5 a path
    # weight rescaled only to [0.5, 1) reaches [1.5, 3) in one step, past the
    # 1.12 that would take their sum past the float range, unless it is scaled
    g = graph_core.generate("complete", 5)
    x = 0.8e308
    first = g.out(0)[0]
    f = cover.ScalarField(VERTICES, [-x if v == g.head(first) else x
                                     for v in range(g.vertex_count)])
    op = cover.transfer_operator(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        averages = op.averages(f.values[op.heads], first, 8)
    for r in range(1, 9):
        ids = cover.arc_vertices(g, first, r).ids()
        share = np.count_nonzero(ids == g.head(first)) / len(ids)
        assert averages[r - 1] == pytest.approx(x * (1 - 2 * share), rel=1e-12)


def test_centring_overflows_only_when_a_difference_passes_the_float_range(k4):
    # values below 2**1023 in size are centred without a check; larger ones
    # raise only if some difference from the centre overflows
    op = cover.transfer_operator(k4)
    below = 2.0 ** 1023 - 2.0 ** 970  # twice it is the largest float
    top = sys.float_info.max
    for values in ([below, -below, 0.5, 0.25], [top, 0.5, -1.0, 0.25], [top, top, top, top]):
        at = np.array(values)[op.heads]
        for base in range(k4.half_edge_count):
            assert np.isfinite(op.averages(at, base, 6)).all()
    at = np.array([2.0 ** 1023, -2.0 ** 1023, 0.5, 0.25])[op.heads]
    for base in range(k4.half_edge_count):
        if k4.head(base) in (0, 1):  # centred on one of the two, the other is 2**1024 away
            with pytest.raises(SizeOutOfRangeError, match="span past the float range"):
                op.averages(at, base, 6)
        else:
            assert np.isfinite(op.averages(at, base, 6)).all()


def test_average_past_float_range_exits_3(tmp_path, capsys, monkeypatch, petersen):
    graph = tmp_path / "pet.g"
    graph_core.save_graph(petersen, graph)
    field = tmp_path / "f.fld"
    cover.save_field(random_field(petersen, VERTICES, 1), field)
    monkeypatch.setenv(analysis.BUDGET_ENV_VAR, str(10 ** 400))
    rc = main(["average", "--graph", str(graph), "--field", str(field), "--set", "arc",
               "--base", "0", "1", "--radius", "1100"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "radius 1025" in err and "Traceback" not in err
