"""The array-backed transfer operator against a big-integer reference step.

The reference counts non-backtracking paths exactly, one half-edge at a time,
with Python integers; the operator must give the same sizes exactly and the
same path-weighted averages to 1e-12, on regular, semiregular, irregular,
dead-end and loop/multi-edge graphs.
"""

import contextlib
import math
import random
import re
import sys
import time
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from covertree import analysis, cover, graph_core
from covertree.cli import main, random_field
from covertree.cover import EDGES, VERTICES
from covertree.errors import (
    BudgetExceededError,
    CovertreeError,
    DisconnectedGraphError,
    EmptySetError,
    SizeOutOfRangeError,
    SupportMismatchError,
)

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

def reference_float_averages(op, at, base, n, block=1):
    """The transfer's float loop stepped to the end, with no repeat check and
    no flat phase, rescaled before every ``block``-th step (before each for
    the default; values small enough that products go subnormal take the
    loop's own blocks, 16 steps for them)."""
    cols = at.reshape(op.size, -1)
    centre = cols[base]
    rows = np.ones((len(centre), 2, op.size))
    rows[:, 1] = (cols - centre).T
    p = np.zeros(op.size)
    p[base] = 1.0
    moments = np.empty((n, len(rows), 2))
    for k in range(n):
        if k:
            if k % block == 0:
                p = np.ldexp(p, -math.frexp(moments.item(k - 1, 0, 0))[1] - op.shift)
            p = np.bincount(op.dst, weights=p[op.src], minlength=op.size)
        np.matmul(rows, p, out=moments[k])
        if moments.item(k, 0, 0) == 0.0:
            moments = moments[:k]
            break
    out = np.zeros((n, len(rows)))
    out[:len(moments)] = centre + moments[..., 1] / moments[..., 0]
    return out.reshape((n, *at.shape[1:]))


def _kernel_steps(call):
    """The float loop steps in ``call()`` by kernel: one ``np.bincount`` call
    each for the scatter-add, one ``np.add`` call each for the gather."""
    steps = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("bincount", "add"):
            original = getattr(np, name)
            patch.setattr(cover.np, name, lambda *args, _name=name, _original=original, **kwargs:
                          steps.update([_name]) or _original(*args, **kwargs))
        call()
    return steps


def _steps_of(call):
    """The number of float loop steps in ``call()``, under either kernel."""
    return sum(_kernel_steps(call).values())


# per kernel, by the call that _kernel_steps counts: the _GATHER_MIN that
# forces every operator onto it, whatever its size
KERNELS = {"bincount": sys.maxsize, "add": 0}


REPEAT_GRAPHS = ("k4", "petersen", "k33", "k25", "k34", "cubic60", "chords", "path", "loops")


@pytest.mark.parametrize("name", REPEAT_GRAPHS)
def test_repeat_exit_keeps_every_bit_of_the_stepped_loop(name, seeded_cubic, monkeypatch):
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
        for kernel, threshold in KERNELS.items():
            monkeypatch.setattr(cover, "_GATHER_MIN", threshold)
            steps = _kernel_steps(lambda: op.averages(one, base, 1000))
            last = steps[kernel]  # 999 if it never stops
            assert steps == Counter({kernel: last})
            for n in [1000] if last == 999 else [1000, last, last + 1, last + 2]:
                for at, cols in ((one, 0), (three, slice(1, 4))):
                    got = op.averages(at, base, n)
                    assert got.shape == (n, *at.shape[1:])
                    assert got.tobytes() == want[:n, cols].tobytes(), (name, kernel, base, n)


def _sample_bases(g):
    return range(0, g.half_edge_count, -(-g.half_edge_count // 6))  # at most six bases


@pytest.mark.parametrize("name", REPEAT_GRAPHS)
def test_blocks_near_the_float_range_keep_every_bit_of_the_stepped_loop(name, seeded_cubic,
                                                                        monkeypatch):
    # the block of raw steps shrinks as the centred values near the float range:
    # to 16, 4-8, 1 and 1 steps for these sizes on graphs of fan-out 2-4; a block
    # too long for the size would overflow a moment and show here as inf or nan
    g = _graphs(seeded_cubic)[name]
    op = cover.transfer_operator(g)
    one = random_field(g, VERTICES, 41).values[op.heads]
    three = np.array([random_field(g, EDGES, s).values for s in (42, 43, 44)]).T[op.edges]
    for size in (1e280, 1e300, 1e306, 8e307):
        for base in _sample_bases(g):
            want = reference_float_averages(op, np.column_stack([one, three]) * size, base, 1000)
            assert np.isfinite(want).all()
            for kernel, threshold in KERNELS.items():
                monkeypatch.setattr(cover, "_GATHER_MIN", threshold)
                # the kernels share the block bookkeeping, so the gather takes a
                # one-row series, one a row past a block, and a long one
                for n in (1, 15, 16, 17, 33, 1000) if kernel == "bincount" else (1, 17, 1000):
                    for at, cols in ((one, 0), (three, slice(1, 4))):
                        got = op.averages(at * size, base, n)
                        assert got.tobytes() == want[:n, cols].tobytes(), \
                            (name, kernel, size, base, n)


def test_shorter_blocks_still_see_repeats_of_period_2_and_4(k33, monkeypatch):
    # at 1e300 the blocks are 8 steps on K(3,3) (period 2) and 4 on K(2,5)
    # (period 4), so both still stop early, under either kernel
    k25 = graph_core.generate("complete_bipartite", 2, 5)
    for g in (k33, k25):
        op = cover.transfer_operator(g)
        at = random_field(g, VERTICES, 41).values[op.heads] * 1e300
        for kernel, threshold in KERNELS.items():
            monkeypatch.setattr(cover, "_GATHER_MIN", threshold)
            steps = _kernel_steps(lambda: op.averages(at, 0, 1000))
            assert steps.keys() == {kernel} and 0 < steps[kernel] < 160, (kernel, steps)


@pytest.mark.parametrize("name", REPEAT_GRAPHS)
def test_subnormal_field_matches_big_integer_reference(name, seeded_cubic, monkeypatch):
    # the one range where bits can move: a raw block's larger distribution rounds
    # fewer products into subnormals than the stepped loop, so it is checked
    # against exact counts instead, relative to the field's size: the 1e-12
    # absolute of the other checks would hold for any result here, and the
    # worst error seen at every base is 2.3e-12 of the size (3.3e-12 for the
    # stepped loop), as subnormals carry fewer digits; the two kernels add the
    # same terms in the same order, so they agree bit for bit here too
    g = _graphs(seeded_cubic)[name]
    op = cover.transfer_operator(g)
    size = 1e-310
    at = random_field(g, VERTICES, 41).values[op.heads] * size
    worst = 0.0
    for base in _sample_bases(g):
        ref = reference_counts(g, base, AVERAGE_RADIUS)
        runs = []
        for threshold in KERNELS.values():
            monkeypatch.setattr(cover, "_GATHER_MIN", threshold)
            runs.append(op.averages(at, base, AVERAGE_RADIUS + 1))
        got = runs[0]
        assert all(run.tobytes() == got.tobytes() for run in runs), (name, base)
        for counts, average in zip(ref, got):
            if any(counts):
                worst = max(worst, abs(average - reference_average(counts, at)))
    assert worst <= 1e-11 * size


def test_large_graphs_step_with_the_gather_and_keep_every_bit(seeded_cubic):
    # 3,000 half-edges: past _GATHER_MIN, so the default kernel is the gather,
    # and the rescaled distribution repeats in time for the loop to stop early
    g = seeded_cubic(1000, 1000)
    op = cover.transfer_operator(g)
    at = random_field(g, VERTICES, 41).values[op.heads]
    for base in (0, 1501, 2999):
        want = reference_float_averages(op, at, base, 400)
        got = []
        steps = _kernel_steps(lambda: got.append(op.averages(at, base, 400)))
        assert steps.keys() == {"add"} and steps["add"] < 160, (base, steps)
        assert got[0].tobytes() == want.tobytes(), base


def test_a_hub_keeps_no_predecessor_table_and_steps_with_bincount():
    # a 300-cycle with a hub on every fifth vertex: the hub's 60 half-edges have
    # 59 predecessors each, so a padded table would hold 42,480 entries for
    # 4,380 pairs; past _GATHER_MIN the operator still takes np.bincount
    g = graph_core.build_graph(301, [(i, (i + 1) % 300) for i in range(300)]
                               + [(300, i) for i in range(0, 300, 5)])
    op = cover.transfer_operator(g)
    assert op.preds is None and op.size >= cover._GATHER_MIN
    at = random_field(g, VERTICES, 41).values[op.heads]
    got = []
    steps = _kernel_steps(lambda: got.append(op.averages(at, 0, 60)))
    assert steps == Counter({"bincount": 59})
    assert got[0].tobytes() == reference_float_averages(op, at, 0, 60).tobytes()


def test_flat_distributions_leave_the_vector_loop_early_and_others_never(petersen, k34,
                                                                       seeded_cubic):
    # Petersen's rescaled distribution repeats with period 1 from step 117.
    # K(3,4)'s grows by 2 and 3 in turn and K5's by 3, so neither repeats bit
    # for bit, but both are flat on a support cycle from a block start on
    # (step 112 or 128 on K(3,4), 80 on K5), and every later row is written
    # from one number
    f = random_field(petersen, VERTICES, 1)
    assert _steps_of(lambda: cover.arc_vertex_sums(petersen, f, 0, 900)) < 200
    f = random_field(k34, EDGES, 1)
    assert _steps_of(lambda: cover.arc_edge_sums(k34, f, 0, 700)) <= 144
    k5 = graph_core.generate("complete", 5)
    f = random_field(k5, VERTICES, 1)
    assert _steps_of(lambda: cover.arc_vertex_sums(k5, f, 0, 600)) <= 96
    # on an irregular graph and on the looped multigraph it never flattens: a
    # step for each of the paths of 2 .. 700 half-edges, at every base
    for g in (graph_core.generate("cycle_with_chords", 12, 0, 5, 3, 9),
              _graphs(seeded_cubic)["loops"]):
        op = cover.transfer_operator(g)
        at = random_field(g, VERTICES, 1).values[op.heads]
        for base in range(g.half_edge_count):
            assert _steps_of(lambda: op.averages(at, base, 700)) == 699, base
        assert op.cycle is None


def _biregular(seed):
    """A seeded (3,4)-biregular graph: 30 vertices of degree 4 and 40 of degree
    3, their 120 edge ends paired by a shuffle, redrawn until simple and connected."""
    rng = random.Random(seed)
    while True:
        ends = [30 + v for v in range(40) for _ in range(3)]
        rng.shuffle(ends)
        edges = list(zip([v for v in range(30) for _ in range(4)], ends))
        if len(set(edges)) == len(edges):
            with contextlib.suppress(DisconnectedGraphError):
                return graph_core.build_graph(70, edges)


def _flat_graphs(seeded_cubic):
    return {
        "k5": graph_core.generate("complete", 5),
        "k34": graph_core.generate("complete_bipartite", 3, 4),
        "k35": graph_core.generate("complete_bipartite", 3, 5),
        "k44": graph_core.generate("complete_bipartite", 4, 4),
        "k25": graph_core.generate("complete_bipartite", 2, 5),
        "k33": graph_core.generate("complete_bipartite", 3, 3),
        "petersen": graph_core.generate("petersen"),
        "cubic60": seeded_cubic(60, 5),
        "biregular": _biregular(34),
    }


@pytest.mark.parametrize("name", ("k5", "k34", "k35", "k44", "k25", "k33", "petersen", "cubic60",
                                  "biregular"))
def test_flat_phase_keeps_every_bit_of_the_stepped_loop(name, seeded_cubic, monkeypatch):
    # each distribution is flat on a support cycle of 1, 2 or 4 places (K(2,5))
    # from a block start on, after which the loop writes its rows from one
    # number per place; every byte equals the stepped loop's, under either
    # kernel, for two columns and one, for values near both ends of the float
    # range, subnormal ones included, and for series that stop inside a block
    g = _flat_graphs(seeded_cubic)[name]
    op = cover.transfer_operator(g)
    two = np.column_stack([random_field(g, VERTICES, 51).values[op.heads],
                           random_field(g, EDGES, 52).values[op.edges]])
    for scale in (1.0, 2.0 ** -500, 2.0 ** 1000, 1e-310, 2.0 ** -1060):
        for base in _sample_bases(g):
            want = reference_float_averages(op, two * scale, base, 600,
                                            16 if scale < 2.0 ** -1000 else 1)
            for kernel, threshold in KERNELS.items():
                monkeypatch.setattr(cover, "_GATHER_MIN", threshold)
                if scale == 1.0:
                    steps = _kernel_steps(lambda: op.averages(two, base, 600))
                    assert steps.keys() == {kernel} and steps[kernel] <= 144, (name, steps)
                for n in (600, 333):
                    for at, cols in ((two, slice(None)), (two[:, 0], 0)):
                        got = op.averages(at * scale, base, n)
                        assert got.tobytes() == want[:n, cols].tobytes(), (name, scale, base, n)
    assert op.cycle is not None



def _quartic(n, seed):
    """A seeded 4-regular graph on n vertices: four ends per vertex paired by
    a shuffle, redrawn until simple and connected."""
    rng = random.Random(seed)
    while True:
        ends = [v for v in range(n) for _ in range(4)]
        rng.shuffle(ends)
        edges = list(zip(ends[::2], ends[1::2]))
        if all(u != v for u, v in edges) and len({frozenset(e) for e in edges}) == len(edges):
            with contextlib.suppress(DisconnectedGraphError):
                return graph_core.build_graph(n, edges)


def _moment_operands(call):
    """The right operands' shapes of every np.matmul in ``call()``."""
    shapes = []
    original = np.matmul
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cover.np, "matmul", lambda a, b, **kwargs:
                      shapes.append(np.shape(b)) or original(a, b, **kwargs))
        call()
    return shapes


@pytest.mark.parametrize("name", ("k34", "biregular", "quartic"))
def test_flat_tail_keeps_every_bit_across_its_segments_and_chunks(name, monkeypatch):
    # past its flat start (step 80-112) the tail writes 680-710 rows: its
    # chain restarts at rows 16, 272 and 528 of them, and it builds rows and block
    # ends in chunks of _TAIL_FLOATS floats, which on the 4-regular graph's
    # 1,600 half-edges (on the gather) is 40 rows: 18 chunks of rows and two
    # of its 45 block ends; bounds of 3 rows and of less than a row split the
    # other graphs too.  Every byte is the stepped loop's, for values near
    # both ends of the float range, subnormal ones included; at 8e307 the
    # block is one step, so only the one-place cycle of the 4-regular graph is
    # kept, and its tail takes a total at every row
    g = {"k34": graph_core.generate("complete_bipartite", 3, 4), "biregular": _biregular(34),
         "quartic": _quartic(400, 400)}[name]
    op = cover.transfer_operator(g)
    two = np.column_stack([random_field(g, VERTICES, 53).values[op.heads],
                           random_field(g, EDGES, 54).values[op.edges]])
    n, bounds = 790, (cover._TAIL_FLOATS, 3 * op.size, op.size - 1)
    bases = _sample_bases(g) if op.size < cover._GATHER_MIN else (0, op.size - 1)
    for scale in (1.0, 2.0 ** -500, 2.0 ** 600, 2.0 ** 1000, 8e307, 1e-310, 2.0 ** -1060):
        for base in bases:
            want = reference_float_averages(op, two * scale, base, n,
                                            16 if scale < 2.0 ** -1000 else 1)
            for kernel, threshold in KERNELS.items():
                monkeypatch.setattr(cover, "_GATHER_MIN", threshold)
                for bound in bounds if kernel == "bincount" else bounds[:1]:
                    monkeypatch.setattr(cover, "_TAIL_FLOATS", bound)
                    got = op.averages(two * scale, base, n)
                    assert got.tobytes() == want.tobytes(), (name, scale, base, kernel, bound)
            monkeypatch.undo()
    # at the default bound no product takes more than _TAIL_FLOATS floats
    shapes = _moment_operands(lambda: op.averages(two, 0, n))
    assert max(math.prod(shape) for shape in shapes) <= cover._TAIL_FLOATS
    if name == "quartic":
        assert max(shape[0] for shape in shapes) == cover._TAIL_FLOATS // op.size == 40


def test_a_repeating_flat_tail_builds_one_block(petersen, seeded_cubic):
    # Petersen and seeded cubic graphs grow by 2, so the flat state repeats a
    # block after the tail starts: it builds one block of rows, takes no
    # block-end total, and copies every later row
    for g, n in ((petersen, 900), (seeded_cubic(60, 5), 700), (seeded_cubic(1000, 1000), 400)):
        op = cover.transfer_operator(g)
        at = random_field(g, VERTICES, 41).values[op.heads]
        steps = []
        shapes = _moment_operands(lambda: steps.append(_steps_of(lambda: op.averages(at, 0, n))))
        assert op.cycle is not None
        assert sum(shape[0] for shape in shapes) == steps[0] + 1 + 16, (g.vertex_count, shapes)


def _theta(length):
    """Two vertices joined by three paths of ``length`` edges."""
    edges, inner = [], 2
    for _ in range(3):
        path = [0, *range(inner, inner + length - 1), 1]
        edges += zip(path, path[1:])
        inner += length - 1
    return graph_core.build_graph(inner, edges)


@pytest.mark.parametrize("g,n", [(graph_core.generate("cycle_with_chords", 2000), 5000),
                                 (_theta(10), 3000)], ids=["cycle2000", "theta10"])
def test_a_support_walking_round_the_whole_graph_keeps_no_cycle(g, n):
    # on a 2000-cycle the distribution is one half-edge walking round the
    # graph, flat but back on its support only after 2,000 steps; its counts
    # stay 1, so it is never probed.  On three paths of 10 edges between two
    # vertices the counts double at each of them and pass 2**53, and the
    # support, three half-edges, is back after 20 steps, past a block of 16.
    # Either way no support cycle is kept (it would hold 2,000 or 20 masks)
    # and the loop steps to the end
    op = cover.transfer_operator(g)
    f = random_field(g, VERTICES, 41)
    at = f.values[op.heads]
    got = []
    assert _steps_of(lambda: got.append(op.averages(at, 0, n))) == n - 1
    assert got[0].tobytes() == reference_float_averages(op, at, 0, n).tobytes()
    assert op.cycle is None
    cover.arc_vertex_sums(g, f, 0, n)
    assert op.cycle is None


def test_exact_path_counts_are_not_probed_for_flatness():
    # on an 8-cycle the distribution is one half-edge, flat on a support cycle
    # of 8 places, but its counts stay exact (all 1), so no block start probes
    # it: the repeat exit stops the loop at step 32, a block after the first
    g = graph_core.generate("cycle_with_chords", 8)
    op = cover.transfer_operator(g)
    at = random_field(g, VERTICES, 3).values[op.heads]
    got = []
    assert _steps_of(lambda: got.append(op.averages(at, 0, 500))) == 31
    assert got[0].tobytes() == reference_float_averages(op, at, 0, 500).tobytes()
    assert op.cycle is None


def test_equitable_partition_is_coarsest_on_regular_and_semiregular(seeded_cubic):
    graphs = _graphs(seeded_cubic)
    for name, classes in (("k4", 1), ("petersen", 1), ("cubic60", 1), ("k34", 2), ("k25", 2)):
        assert len(cover.transfer_operator(graphs[name]).quotient) == classes, name


def _refined_partition(g):
    """Colour refinement from one class to a fixed point: the reference
    (classes, quotient) pair, in the order of first appearance."""
    colour, count = [0] * g.half_edge_count, 1
    while True:
        ids = {}
        refined = [ids.setdefault((colour[h], tuple(sorted(colour[x] for x in g.continuations(h)))),
                                  len(ids)) for h in range(g.half_edge_count)]
        if len(ids) == count:
            break
        colour, count = refined, len(ids)
    first = {c: h for h, c in reversed(list(enumerate(colour)))}
    quotient = tuple(tuple(sorted(Counter(colour[x] for x in g.continuations(first[c])).items()))
                     for c in range(count))
    return colour, quotient


def test_uniform_fan_out_is_one_class_without_refinement(seeded_cubic, monkeypatch):
    graphs = _graphs(seeded_cubic)
    for name, c in (("k4", 2), ("petersen", 2), ("k33", 2), ("cubic60", 2)):
        g = graphs[name]
        assert cover._equitable_partition(g) == _refined_partition(g) \
            == ([0] * g.half_edge_count, (((0, c),),)), name
    # one read of each half-edge's fan-out, and no refinement round
    reads = Counter()
    continuations = graph_core.Graph.continuations
    monkeypatch.setattr(graph_core.Graph, "continuations",
                        lambda g, h: reads.update([h]) or continuations(g, h))
    g = graphs["cubic60"]
    cover._equitable_partition(g)
    monkeypatch.undo()
    assert reads == Counter(range(g.half_edge_count))
    edge = graph_core.build_graph(2, [(0, 1)])  # fan-out 0: one class, no continuations
    assert cover._equitable_partition(edge) == _refined_partition(edge) == ([0, 0], ((),))
    bare = graph_core.build_graph(1, [])
    assert cover._equitable_partition(bare) == _refined_partition(bare) == ([], ())
    for name in ("k34", "k25", "chords", "path", "loops"):  # mixed fan-out is refined
        g = graphs[name]
        assert cover._equitable_partition(g) == _refined_partition(g), name
    assert len(cover._equitable_partition(graphs["k34"])[1]) == 2


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


# --- arc sizes kept once per equitable class ---

ROW_GRAPHS = ("k4", "petersen", "k34", "k25", "chords", "loops", "path")


def _fresh_sizes(g, base, radius):
    """Numbers of paths of 0 .. radius + 1 half-edges starting with ``base``, read
    from g.continuations alone: A_r has those of r half-edges, A'_r of r + 1."""
    return [1] + [sum(c) for c in reference_counts(g, base, radius)]


def _kept(g):
    op = cover.transfer_operator(g)
    return ({c: list(row) for c, row in op.rows.items()},
            {c: x.tobytes() for c, x in op.floats.items()})


@pytest.mark.parametrize("name", ROW_GRAPHS)
def test_kept_rows_equal_fresh_counts_asked_for_in_any_order(name, seeded_cubic):
    # short, long, short again and longer, on both supports: a row read, cut
    # or extended at the wrong place shows against counts that ignore the rows
    g = _graphs(seeded_cubic)[name]
    fields = {VERTICES: random_field(g, VERTICES, 7), EDGES: random_field(g, EDGES, 8)}
    sums_of = {VERTICES: cover.arc_vertex_sums, EDGES: cover.arc_edge_sums}
    fresh = [_fresh_sizes(g, base, 41) for base in range(g.half_edge_count)]
    for radius in (3, 25, 2, 40, 10):
        for support in (VERTICES, EDGES):
            first = support == EDGES
            for base in range(g.half_edge_count):
                expected = fresh[base][first:radius + 1 + first]
                sizes, images = cover.transfer_operator(g).sizes(base, support, radius)
                assert sizes == expected
                assert images.tolist() == [float(n) for n in expected]
                assert sums_of[support](g, fields[support], base, radius)[0] == expected
                assert list(cover.arc_counts(g, base, support, radius)) == expected
                if 0 not in expected and radius >= 2:
                    report = analysis.deviation_series(g, fields[support], set_kind="arc",
                                                       radius=radius, base=base, budget=10 ** 40)
                    assert report.sizes == expected


def test_the_rows_are_not_aliased_by_any_returned_size_list():
    # _union_series extends lists in place and writes sizes[0]; a kept row handed
    # out as one of them would change every later series on its class
    g = graph_core.generate("complete_bipartite", 3, 4)
    fv, fe = random_field(g, VERTICES, 9), random_field(g, EDGES, 10)
    tube, op = _star(g, 0), cover.transfer_operator(g)
    expected = {h: _fresh_sizes(g, h, 13) for h in range(g.half_edge_count)}
    returned = [analysis.deviation_series(g, fv, set_kind="arc", radius=12, base=0).sizes,
                analysis.deviation_series(g, fe, set_kind="tube", radius=12, subtree=tube).sizes,
                cover.arc_vertex_sums(g, fv, 3, 12)[0], cover.arc_edge_sums(g, fe, 3, 12)[0],
                list(cover.arc_counts(g, 5, VERTICES, 12)), op.sizes(5, EDGES, 12)[0]]
    for sizes in returned:
        sizes[:3] = [-1, -2, -3]
        sizes.append(-4)
    for h in range(g.half_edge_count):
        assert analysis.deviation_series(g, fv, set_kind="arc", radius=12,
                                         base=h).sizes == expected[h][:13]
        assert cover.arc_edge_sums(g, fe, h, 12)[0] == expected[h][1:14]
    with pytest.raises(ValueError, match="read-only"):
        op.sizes(0, VERTICES, 12)[1][0] = -1.0
    # a row that grows while arc_counts is read does not change what it yields
    counts = cover.arc_counts(g, 0, VERTICES, 40)
    assert [next(counts) for _ in range(5)] == expected[0][:5]
    op.sizes(0, VERTICES, 30)
    assert list(counts) == _fresh_sizes(g, 0, 40)[5:41]


def test_a_row_is_never_longer_than_the_longest_series_that_passed(petersen):
    # a radius over the cap is refused before anything is counted, and counting
    # stops at the first size past the float range, so no kept row holds one
    g = graph_core.generate("petersen")
    f = random_field(g, VERTICES, 11)
    geo = cover.GeodesicSpec(tuple(g.half_edge(i, (i + 1) % 5) for i in range(5)))
    with pytest.raises(BudgetExceededError, match="^horocycle radius 101 is over the cap 100$"):
        analysis.deviation_series(g, f, set_kind="horocycle", radius=101, geodesic=geo,
                                  budget=100)
    assert _kept(g) == ({}, {})
    analysis.deviation_series(g, f, set_kind="horocycle", radius=5, geodesic=geo, budget=100)
    kept = _kept(g)
    assert [len(row) for row in kept[0].values()] == [7]  # one class: paths of 0 .. 6 half-edges
    with pytest.raises(BudgetExceededError, match="^horocycle radius 101 is over the cap 100$"):
        analysis.deviation_series(g, f, set_kind="horocycle", radius=101, geodesic=geo,
                                  budget=100)
    assert _kept(g) == kept
    for _ in range(2):  # the second time from the kept row
        with pytest.raises(SizeOutOfRangeError, match=re.escape(
                "arc at radius 1025 has about 2**1024 elements; their sum is past")):
            analysis.deviation_series(g, f, set_kind="horocycle", radius=2000, geodesic=geo)
        (row,) = _kept(g)[0].values()
        assert row == [1] + [2 ** k for k in range(1024)]  # 2**1023 <= the largest float
    # the 6-cycle's spheres never grow: only the radius is refused
    cycle = graph_core.generate("cycle_with_chords", 6)
    f = random_field(cycle, VERTICES, 12)
    analysis.deviation_series(cycle, f, set_kind="sphere", radius=10, root=0, budget=10)
    kept = _kept(cycle)
    assert [len(row) for row in kept[0].values()] == [11]
    with pytest.raises(BudgetExceededError, match="^sphere radius 11 is over the cap 10$"):
        analysis.deviation_series(cycle, f, set_kind="sphere", radius=11, root=0, budget=10)
    assert _kept(cycle) == kept
    # a dead end is refused at its first empty radius, after its sizes were
    # counted exactly, zeros included; at a huge radius, counting stops at
    # radius H + 1 (H half-edges, one piece), where every arc that ends has ended
    for n in (5, 101):
        path = graph_core.build_graph(n, [(i, i + 1) for i in range(n - 1)])
        base = path.half_edge(0, 1)
        f = random_field(path, VERTICES, 13)
        op = cover.transfer_operator(path)
        start = time.perf_counter()
        with pytest.raises(EmptySetError, match=f"set at radius {n} is empty"):
            analysis.deviation_series(path, f, set_kind="arc", radius=10 ** 7, base=base)
        assert time.perf_counter() - start < 0.1
        assert op.rows[op.classes[base]] == _fresh_sizes(path, base, 2 * n)[:2 * n]


def test_irregular_graphs_keep_one_list_of_counts_per_class_and_no_vector(seeded_cubic):
    # counting steps a vector over every class; it is stepped again when a row
    # grows, not kept beside the row
    g = _graphs(seeded_cubic)["chords"]
    op = cover.transfer_operator(g)
    assert not all(len(terms) == 1 for terms in op.quotient)  # a class continues into several
    f = random_field(g, VERTICES, 14)
    for base in range(g.half_edge_count):
        analysis.deviation_series(g, f, set_kind="arc", radius=30, base=base)
    assert set(op.rows) == set(op.classes) and len(op.rows) > 2
    assert all(len(row) == 31 and all(type(n) is int for n in row) for row in op.rows.values())
    assert all(op.floats[c].shape == (31,) for c in op.rows)
    assert not hasattr(op, "__dict__")  # nothing else is kept on the operator


# --- history independence of the kept rows ---

# a generator call and a closed non-backtracking walk for each graph: regular,
# semiregular with two half-edge classes, semiregular with a repeat, irregular
HISTORY_GRAPHS = {
    "petersen": (("petersen",), (0, 1, 2, 3, 4, 0)),
    "k34": (("complete_bipartite", 3, 4), (0, 3, 1, 4, 0)),
    "k25": (("complete_bipartite", 2, 5), (0, 2, 1, 3, 0)),
    "chords": (("cycle_with_chords", 12, 0, 5, 3, 9), tuple(range(12)) + (0,)),
}
SCALES = (1.0, 2.0 ** 500, 2.0 ** -500, 2.0 ** 1000)
SERIES_KINDS = (("arc", VERTICES), ("arc", EDGES), ("sphere", VERTICES),
                ("edge-sphere", EDGES), ("tube", VERTICES), ("tube", EDGES),
                ("horocycle", VERTICES))


def _history_answer(g, request):
    """What a request returns on ``g``, as sizes and bytes, or its error's type and message."""
    what, support, base, radius, budget, f, walk = request
    anchor = base % g.half_edge_count
    try:
        if what == "sums":
            sums_of = cover.arc_vertex_sums if support == VERTICES else cover.arc_edge_sums
            sizes, sums = sums_of(g, f, anchor, radius)
            return sizes, np.array(sums).tobytes()
        if what == "counts":
            return list(cover.arc_counts(g, anchor, support, radius))
        if what == "sizes":
            sizes, images = cover.transfer_operator(g).sizes(anchor, support, radius)
            return sizes, images.tobytes()
        root = g.tail(anchor)
        anchors = {"arc": {"base": anchor}, "sphere": {"root": root},
                   "edge-sphere": {"root": root}, "tube": {"subtree": _star(g, root)},
                   "horocycle": {"geodesic": cover.GeodesicSpec(tuple(
                       g.half_edge(u, v) for u, v in zip(walk, walk[1:])))}}
        report = analysis.deviation_series(g, f, set_kind=what, radius=radius, budget=budget,
                                           **anchors[what])
        return report.sizes, np.array([report.averages, report.targets,
                                       report.deviations]).tobytes()
    except CovertreeError as exc:
        return type(exc).__name__, str(exc)


class KeptRowsAreHistoryIndependent(RuleBasedStateMachine):
    """Any sequence of requests on the same graphs gives each answer the bits a
    fresh graph, whose operator has kept nothing, gives; and no kept row ever
    holds a size past the float range or an image other than float(size)."""

    def __init__(self):
        super().__init__()
        self.graphs = {name: graph_core.generate(*args)
                       for name, (args, _) in HISTORY_GRAPHS.items()}
        self.fields = {(name, support, scale): cover.ScalarField(
                           support, random_field(g, support, 31).values * scale)
                       for name, g in self.graphs.items()
                       for support in (VERTICES, EDGES) for scale in SCALES}

    def _ask(self, name, request):
        fresh = graph_core.generate(*HISTORY_GRAPHS[name][0])
        assert _history_answer(self.graphs[name], request) == _history_answer(fresh, request)

    @rule(name=st.sampled_from(sorted(HISTORY_GRAPHS)),
          what=st.sampled_from(("sums", "counts", "sizes")),
          support=st.sampled_from((VERTICES, EDGES)), base=st.integers(0, 59),
          radius=st.integers(2, 5000), scale=st.sampled_from(SCALES))
    def arc_request(self, name, what, support, base, radius, scale):
        self._ask(name, (what, support, base, radius, None, self.fields[name, support, scale],
                         None))

    @rule(name=st.sampled_from(sorted(HISTORY_GRAPHS)), kind=st.sampled_from(SERIES_KINDS),
          base=st.integers(0, 59), radius=st.integers(2, 5000),
          budget=st.sampled_from((None, 5, 50, 10 ** 9)), scale=st.sampled_from(SCALES))
    def series_request(self, name, kind, base, radius, budget, scale):
        set_kind, support = kind
        self._ask(name, (set_kind, support, base, radius, budget,
                         self.fields[name, support, scale], HISTORY_GRAPHS[name][1]))

    @invariant()
    def kept_rows_fit_the_float_range(self):
        for op in (g._transfer for g in self.graphs.values() if g._transfer is not None):
            assert all(max(row, default=0) <= cover._FLOAT_MAX for row in op.rows.values())
            for c, images in op.floats.items():
                assert not images.flags.writeable and len(images) <= len(op.rows[c])
                assert images.tolist() == [float(n) for n in op.rows[c][:len(images)]]

    @invariant()
    def kept_support_cycle_is_read_only_and_a_cycle(self):
        # at most 16 places of H entries each; place i's successors are place
        # i + 1, each with the c_i predecessors in place i that the steps hold
        for g in self.graphs.values():
            if g._transfer is None or g._transfer.cycle is None:
                continue
            op = g._transfer
            index, masks, steps, product = op.cycle
            places = len(masks)
            assert 1 <= places <= 16 and masks.shape == (places, op.size)
            assert not masks.flags.writeable and not steps.flags.writeable
            assert masks.dtype == bool
            assert index == {m.tobytes(): i for i, m in enumerate(masks)}
            assert steps.tolist() == [steps[i % places] for i in range(places + 512)]
            assert product == (steps.max() <= 3)
            for i, mask in enumerate(masks):
                into = Counter(x for h in np.flatnonzero(mask).tolist() for x in g.continuations(h))
                assert sorted(into) == np.flatnonzero(masks[(i + 1) % places]).tolist()
                assert set(into.values()) == {steps[i]}


TestKeptRowsAreHistoryIndependent = KeptRowsAreHistoryIndependent.TestCase
TestKeptRowsAreHistoryIndependent.settings = settings(max_examples=20, stateful_step_count=8,
                                                      deadline=None)


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
                                                 ("tube", EDGES, "subtree"),
                                                 ("tube", VERTICES, "triangle"),
                                                 ("tube", EDGES, "triangle"),
                                                 ("horocycle", VERTICES, "geodesic")])
def test_union_series_runs_one_arc_series_per_base(petersen, k4, monkeypatch, kind, support,
                                                   anchor):
    g = k4 if anchor == "triangle" else petersen
    f = random_field(g, support, 5)
    name = "arc_vertex_sums" if support == VERTICES else "arc_edge_sums"
    calls = []
    original = getattr(cover, name)

    def counting(g, fields, base, max_radius):
        calls.append(base)
        return original(g, fields, base, max_radius)

    monkeypatch.setattr(cover, name, counting)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    anchors = {"root": {"root": 0}, "subtree": {"subtree": _star(petersen, 0)},
               "triangle": {"subtree": _triangle_tube(k4)}, "geodesic": {"geodesic": geo}}
    report = analysis.deviation_series(g, f, set_kind=kind, radius=12, **anchors[anchor])
    # the pieces of each radius, in order: a horocycle's radius-r piece is the arc of
    # radius r + 1 behind the (r+1)-th geodesic half-edge
    if kind == "tube":
        family = analysis.set_family(g, "tube", anchors[anchor]["subtree"], support)
        pieces, shift = [family.pieces[0]], 0
    elif kind == "horocycle":
        pieces, shift = [[g.twin(h)] for h in geo.half_edges], 1
    else:
        pieces, shift = [g.out(0)], 0
    assert calls == list(dict.fromkeys(h for piece in pieces for h in piece))
    count = cover.arc_vertex_count if support == VERTICES else cover.arc_edge_count
    assert report.sizes[1:] == [sum(count(g, h, r + shift) for h in pieces[r % len(pieces)])
                                for r in range(1, 13)]
    if anchor == "triangle":  # a repeated boundary half-edge runs once and counts twice
        assert pieces[0].count(4) == 2 and calls.count(4) == 1


def _assert_matches_enumeration(g, f, kind, layer, radius, **anchor):
    report = analysis.deviation_series(g, f, set_kind=kind, radius=radius, **anchor)
    for r in range(radius + 1):
        elements = layer(r)
        assert report.sizes[r] == len(elements), (kind, anchor, r)
        assert abs(report.averages[r] - cover.set_average(f, elements)) <= 1e-12, (kind, anchor, r)


def test_triangle_tube_with_a_repeated_boundary_matches_enumeration(k4):
    members = _triangle_tube(k4)
    boundary = analysis.set_family(k4, "tube", members, VERTICES).pieces[0]
    assert sorted(boundary) == [0, 2, 4, 4, 8, 10]  # both ends of the walk leave 0 by 0 -> 3
    for seed in (1, 2, 3):
        fv, fe = random_field(k4, VERTICES, seed), random_field(k4, EDGES, seed)
        _assert_matches_enumeration(k4, fv, "tube", lambda r: cover.tube_vertices(k4, members, r),
                                    6, subtree=members)
        _assert_matches_enumeration(k4, fe, "tube", lambda r: cover.tube_edges(k4, members, r),
                                    6, subtree=members)


def test_radius_0_of_tubes_and_spheres_is_one_correctly_rounded_mean(petersen, k4):
    # an edge tube's radius 0 is its boundary edges and the subtree's internal edges
    for g, members in ((petersen, _star(petersen, 0)), (k4, _triangle_tube(k4))):
        for seed in (1, 2, 3):
            fv, fe = random_field(g, VERTICES, seed), random_field(g, EDGES, seed)
            zeros = [(fe, "tube", {"subtree": members}, cover.tube_edges(g, members, 0)),
                     (fv, "tube", {"subtree": members}, cover.tube_vertices(g, members, 0)),
                     (fv, "sphere", {"root": 0}, [cover.cover_root(g, 0)])]
            for f, kind, anchor, elements in zeros:
                report = analysis.deviation_series(g, f, set_kind=kind, radius=4, **anchor)
                assert report.sizes[0] == len(elements)
                assert report.averages[0].hex() == cover.set_average(f, elements).hex()
    negative = cover.constant_field(petersen, VERTICES, -0.0)  # a -0.0 root reads +0.0
    report = analysis.deviation_series(petersen, negative, set_kind="sphere", radius=2, root=0)
    assert math.copysign(1.0, report.averages[0]) == 1.0


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

    def counting(g, f, base, max_radius):
        calls.append((base, max_radius))
        return original(g, f, base, max_radius)

    monkeypatch.setattr(cover, "arc_vertex_sums", counting)
    report = analysis.deviation_series(petersen, f, set_kind="horocycle", radius=radius,
                                       geodesic=geo, budget=10 ** 40)
    assert sorted(calls) == sorted((petersen.twin(h), radius + 1) for h in geo.half_edges)
    assert report.sizes == [2 ** r for r in range(radius + 1)]
    assert max(abs(a - b) for a, b in zip(report.averages, expected)) <= 1e-12


def test_horocycle_budget_names_the_first_radius_over_the_cap(petersen):
    # the cap bounds the radius, whatever the sizes: radius cap runs, cap + 1 does not
    f = random_field(petersen, VERTICES, 23)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    report = analysis.deviation_series(petersen, f, set_kind="horocycle", radius=100,
                                       geodesic=geo, budget=100)
    assert report.sizes[-1] == 2 ** 100
    with pytest.raises(BudgetExceededError, match="^horocycle radius 101 is over the cap 100$"):
        analysis.deviation_series(petersen, f, set_kind="horocycle", radius=101,
                                  geodesic=geo, budget=100)


def test_horocycle_budget_stops_before_counting_a_huge_radius(petersen, monkeypatch):
    # the radius is checked before anything is counted
    f = random_field(petersen, VERTICES, 23)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))

    def no_count(*args):
        raise AssertionError("counted")

    monkeypatch.setattr(cover.TransferOperator, "_counts", no_count)
    with pytest.raises(BudgetExceededError,
                       match="^horocycle radius 100000000 is over the cap 10000000$"):
        analysis.deviation_series(petersen, f, set_kind="horocycle", radius=10 ** 8,
                                  geodesic=geo)


def _star(g, v):
    root = cover.cover_root(g, v)
    return [root] + cover.cover_children(g, root)


# Every set kind on Petersen; the star of a vertex has four members and six
# boundary arcs.
BUDGET_CASES = [
    ("arc", VERTICES, "base", "arc radius 100000000 is over the cap 100"),
    ("sphere", VERTICES, "root", "sphere radius 100000000 is over the cap 100"),
    ("edge-sphere", EDGES, "root", "edge sphere radius 100000000 is over the cap 100"),
    ("tube", VERTICES, "subtree", "tube radius 100000000 is over the cap 100"),
    ("tube", EDGES, "subtree", "edge tube radius 100000000 is over the cap 100"),
    ("horocycle", VERTICES, "geodesic", "horocycle radius 100000000 is over the cap 100"),
]


@pytest.mark.parametrize("kind,support,anchor,message", BUDGET_CASES)
def test_budget_stops_at_the_first_radius_over_the_cap(petersen, kind, support, anchor, message):
    # a huge radius is refused before anything is counted: fast, and no row is kept
    f = random_field(petersen, support, 23)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    anchors = {"base": 0, "root": 0, "subtree": _star(petersen, 0), "geodesic": geo}
    kept = _kept(petersen)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=f"^{re.escape(message)}$"):
        analysis.deviation_series(petersen, f, set_kind=kind, radius=10 ** 8, budget=100,
                                  **{anchor: anchors[anchor]})
    assert time.perf_counter() - start < 0.1
    assert _kept(petersen) == kept


def test_budget_counts_spheres_from_radius_1(petersen, monkeypatch):
    # a transfer series caps its radius alone, so its spheres may hold more
    # elements than the cap; the enumerating sphere check caps every sphere from
    # radius 1, as S_0 is the root alone, not the three arcs' shared tail
    f = random_field(petersen, VERTICES, 1)
    report = analysis.deviation_series(petersen, f, set_kind="sphere", radius=2, root=0, budget=2)
    assert report.sizes == [1, 3, 6]
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 2)
    with pytest.raises(BudgetExceededError, match=re.escape("sphere at radius 1 has 3 elements")):
        analysis.check_sphere_decomposition(petersen, 0, f, 2)
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 0)
    assert analysis.check_sphere_decomposition(petersen, 0, f, 0)


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
    # the default cap is radius 10**7
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: {kind.replace('-', ' ')} radius 100000000 is over the cap 10000000\n")


def test_verify_huge_radius_exits_3_naming_the_radius(tmp_path, capsys, petersen):
    # the cap is checked before the first transfer, so nothing is printed
    graph = tmp_path / "pet.g"
    graph_core.save_graph(petersen, graph)
    start = time.perf_counter()
    rc = main(["verify", "--graph", str(graph), "--theorem", "1", "--radius", "100000000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: arc radius 100000000 is over the cap 10000000\n"


def test_budget_bounds_the_radius_of_a_set_that_never_grows(tmp_path, capsys):
    # every arc of the 6-cycle has one element and every sphere two: at the
    # default cap, radius 10**8 is refused at once, before anything is counted
    g = graph_core.generate("cycle_with_chords", 6)
    f = random_field(g, VERTICES, 1)
    geo = cover.GeodesicSpec(tuple(g.half_edge(i, (i + 1) % 6) for i in range(6)))
    for kind, anchor in (("arc", {"base": 0}), ("sphere", {"root": 0}),
                         ("horocycle", {"geodesic": geo})):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=re.escape(
                f"{kind} radius 100000000 is over the cap 10000000")):
            analysis.deviation_series(g, f, set_kind=kind, radius=10 ** 8, **anchor)
        assert time.perf_counter() - start < 0.1
        assert _kept(g) == ({}, {})
    graph, field = tmp_path / "cycle.g", tmp_path / "f.fld"
    graph_core.save_graph(g, graph)
    cover.save_field(f, field)
    rc = main(["average", "--graph", str(graph), "--field", str(field), "--set", "arc",
               "--base", "0", "1", "--radius", "100000000"])
    assert rc == 3
    assert capsys.readouterr().err == "error: arc radius 100000000 is over the cap 10000000\n"


def test_budget_bounds_the_radius_only_past_the_cap(petersen):
    # radius cap runs, however large its sets; radius cap + 1 is refused, also
    # on a set that never grows past the cap
    f = random_field(petersen, VERTICES, 1)
    report = analysis.deviation_series(petersen, f, set_kind="arc", radius=3, base=0, budget=3)
    assert report.sizes == [1, 1, 2, 4]  # 4 elements at radius 3, over the cap 3
    g = graph_core.generate("cycle_with_chords", 12, 0, 6)
    f = random_field(g, VERTICES, 1)
    series = lambda radius: analysis.deviation_series(  # noqa: E731
        g, f, set_kind="arc", radius=radius, base=0, budget=3)
    assert series(3).sizes == [1, 1, 1, 1]
    for radius in (4, 10 ** 8):
        with pytest.raises(BudgetExceededError, match=re.escape(
                f"arc radius {radius} is over the cap 3")):
            series(radius)


def test_verify_passes_at_the_default_cap_on_dense_regular_graphs(tmp_path, capsys):
    # the arcs of K7 hold 5**11 elements at radius 12, more than the 10**7 that
    # an element cap allowed; the transfer's cost does not depend on them
    for args, theorems in ((("complete", 7), (1, 2)), (("complete", 6), (2,)),
                           (("complete_bipartite", 5, 5), (2,))):
        graph = tmp_path / "g.g"
        graph_core.save_graph(graph_core.generate(*args), graph)
        for theorem in theorems:
            rc = main(["verify", "--graph", str(graph), "--theorem", str(theorem)])
            lines = capsys.readouterr().out.splitlines()
            assert rc == 0, (args, theorem)
            assert lines and all(line.startswith(("PASS", "INFO")) for line in lines), lines


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


def test_arc_past_float_range_fails_fast_at_the_default_cap():
    # counting stops at the first size past the float range, so a deep series
    # fails there at once and keeps no size past it
    g = graph_core.generate("petersen")
    f = random_field(g, VERTICES, 1)
    start = time.perf_counter()
    with pytest.raises(SizeOutOfRangeError, match=re.escape(
            "arc at radius 1025 has about 2**1024 elements; their sum is past the float range")):
        analysis.deviation_series(g, f, set_kind="arc", radius=5000, base=0)
    assert time.perf_counter() - start < 0.1
    rows, _ = _kept(g)
    assert rows and max(max(row) for row in rows.values()) <= cover._FLOAT_MAX


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


def test_value_arrays_are_checked_whole_before_any_step(petersen):
    # every column counts: a NaN in the last one is not a span past the float range
    values = np.zeros((petersen.vertex_count, 3))
    values[4, 2] = np.nan
    with pytest.raises(ValueError, match="field values must be finite"):
        cover.arc_vertex_sums(petersen, values, 0, 5)
    values[4, 2] = 0.0
    with pytest.raises(SupportMismatchError, match=r"shape \(10, 3\) do not fit the graph's edges"):
        cover.arc_edge_sums(petersen, values, 0, 5)
    with pytest.raises(SupportMismatchError, match=r"shape \(10,\) do not fit"):
        cover.arc_vertex_sums(petersen, values[:, 0], 0, 5)


def test_average_past_float_range_exits_3(tmp_path, capsys, monkeypatch, petersen):
    graph = tmp_path / "pet.g"
    graph_core.save_graph(petersen, graph)
    field = tmp_path / "f.fld"
    cover.save_field(random_field(petersen, VERTICES, 1), field)
    monkeypatch.setattr(analysis, "DEFAULT_BUDGET", 10 ** 400)
    rc = main(["average", "--graph", str(graph), "--field", str(field), "--set", "arc",
               "--base", "0", "1", "--radius", "1100"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:") and "radius 1025" in err and "Traceback" not in err
