"""The three benchmark workloads, as lists of operations with output gates.

An operation is one call into the library.  Each belongs to one of three
task classes, reported as ``small_s``, ``large_s`` and ``special_s``:

  verify_ladder      small: K(3,4) thm 3, Petersen thm 1 and thm 2
                     special: cubic-60 thm 2 (the edge path)
                     large: cubic-120 and cubic-240 thm 1
  series_deep        small: Petersen and K(3,4) arcs, Petersen edge sphere and tube
                     large: cubic-1000 vertex sphere and edge arc
                     special: Petersen horocycle (restarts the transfer per radius)
  oracle_crosscheck  small: K4, Petersen, K(3,3) arcs, every base half-edge
                     large: K(3,4) arcs, every base half-edge
                     special: Petersen sphere decomposition and tube

The gates do not depend on the seed: verify must exit 0 with one recursion
and one envelope check per eigenvector; series sizes must equal the closed
forms and their averages the enumeration; transfer and enumeration must
agree within 1e-12.  Library functions are looked up on their modules at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

from covertree import analysis, cli, cover

from bench_inputs import InputWriter, cubic_edges, fixed_edges

CLASSES = ("small", "large", "special")
AGREEMENT_TOL = 1e-12
VERIFY_RADIUS = 12
CHECK_RADIUS = 8      # series averages are compared with enumeration up to here
ORACLE_RADIUS = 11


@dataclass
class Op:
    label: str
    cls: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]   # error message, or None when correct
    recorded: Callable[[object], int] = lambda result: 0   # checks the library recorded


# --- closed-form set sizes on (bi)regular graphs ---

def arc_size(d_tail, d_head, r):
    """|A_r| of a half-edge from a degree-d_tail to a degree-d_head vertex."""
    if r == 0:
        return 1
    return (d_head - 1) ** (r // 2) * (d_tail - 1) ** ((r - 1) // 2)


# --- gates ---

def check_verify(rc, stdout, doc, theorem, dim):
    """``verify`` must pass every check, with exactly one recursion and one
    envelope check per nontrivial eigenvector plus the regime's fixed extras."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.splitlines()
    if any(not line.startswith(("PASS ", "INFO ")) for line in lines):
        return "a line is neither PASS nor INFO"
    checks = doc["checks"]
    if not all(c["passed"] for c in checks) or sum(x.startswith("PASS ") for x in lines) != len(checks):
        return "a check did not pass"
    names = [c["name"] for c in checks]
    recursion = sum(n.startswith("recursion ") for n in names)
    envelope = sum(n.startswith("envelope ") for n in names)
    extras = sorted(n for n in names if not n.startswith(("recursion ", "envelope ")))
    expected = sorted(["random-field envelope"]
                      + (["vanishing-star decay"] if theorem in (2, 3) else [])
                      + (["spectral gap"] if theorem == 3 else []))
    if recursion != dim - 1 or envelope != dim - 1 or extras != expected:
        return f"{recursion} recursion, {envelope} envelope checks, extras {extras}; expected {dim - 1} each"
    return None


def check_series(report, sizes, reference):
    """Sizes equal the closed form, averages up to CHECK_RADIUS equal the
    enumerated ones, and the last deviation is below the zero floor."""
    if list(report.sizes) != sizes:
        return "sizes differ from the closed form"
    worst = max(abs(a - b) for a, b in zip(report.averages, reference))
    if worst > AGREEMENT_TOL:
        return f"average differs from enumeration by {worst:.3e}"
    if not report.deviations[-1] < analysis.DEVIATION_FLOOR:
        return f"final deviation {report.deviations[-1]:.3e} is not below the floor"
    return None


def check_agreement(result):
    """Enumerated (size, average) pairs equal the transfer sizes and averages."""
    enumerated, sizes, averages = result
    if [n for n, _ in enumerated] != list(sizes):
        return "enumerated sizes differ from the transfer sizes"
    worst = max(abs(a - b) for (_, a), b in zip(enumerated, averages))
    if worst > AGREEMENT_TOL:
        return f"transfer differs from enumeration by {worst:.3e}"
    return None


# --- verify_ladder ---

def run_verify(path, theorem, seed, out_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["verify", "--graph", str(path), "--theorem", str(theorem),
                       "--radius", str(VERIFY_RADIUS), "--seed", str(seed), "-o", str(out_path)])
    return rc, buf.getvalue(), out_path


def verify_op(label, cls, path, g, theorem, seed, out_path):
    dim = g.vertex_count if theorem == 1 else g.edge_count

    def check(result):
        rc, stdout, out = result
        doc = json.loads(out.read_text()) if rc == 0 else None
        return check_verify(rc, stdout, doc, theorem, dim)

    def recorded(result):
        return sum(line.startswith(("PASS ", "FAIL ")) for line in result[1].splitlines())

    return Op(label, cls, lambda: run_verify(path, theorem, seed, out_path), check, recorded)


def verify_ops(w):
    seed = w.rng.randrange(1, 2 ** 31)
    k34 = w.graph("k34", *fixed_edges("complete_bipartite", 3, 4))
    pet = w.graph("petersen", *fixed_edges("petersen"))
    c60, c120, c240 = (w.graph(f"cubic{n}", n, cubic_edges(n, w.rng)) for n in (60, 120, 240))
    ladder = [
        ("small", "K(3,4) thm 3", k34, 3),
        ("small", "Petersen thm 1", pet, 1),
        ("small", "Petersen thm 2", pet, 2),
        ("special", "cubic-60 thm 2", c60, 2),
        ("large", "cubic-120 thm 1", c120, 1),
        ("large", "cubic-240 thm 1", c240, 1),
    ]
    return [verify_op(label, cls, path, g, theorem, seed, w.directory / f"verify{i}.json")
            for i, (cls, label, (path, g, _), theorem) in enumerate(ladder)]


# --- series_deep ---

def series_op(label, cls, g, f, kind, radius, sizes, layers, **anchor):
    """One deviation series; ``layers()`` enumerates its sets up to CHECK_RADIUS."""
    reference = []

    def check(report):
        if not reference:
            enumerated = layers()
            if [len(s) for s in enumerated] != sizes[:CHECK_RADIUS + 1]:
                return "enumerated sizes differ from the closed form"
            reference.extend(cover.set_average(f, s) for s in enumerated)
        return check_series(report, sizes, reference)

    run = lambda: analysis.deviation_series(g, f, set_kind=kind, radius=radius, **anchor)  # noqa: E731
    return Op(label, cls, run, check)


def star(g, v):
    root = cover.cover_root(g, v)
    return [root] + cover.cover_children(g, root)


def series_ops(w):
    _, pet, perm = w.graph("petersen", *fixed_edges("petersen"))
    _, k34, _ = w.graph("k34", *fixed_edges("complete_bipartite", 3, 4))
    _, big, _ = w.graph("cubic1000", 1000, cubic_edges(1000, w.rng))
    pet_v, pet_e = w.vertex_field("petersen_v", pet), w.edge_field("petersen_e", pet)
    k34_e = w.edge_field("k34_e", k34)
    big_v, big_e = w.vertex_field("cubic1000_v", big), w.edge_field("cubic1000_e", big)
    outer = w.geodesic("petersen_outer", pet, [perm[i] for i in range(5)])
    tube = star(pet, 0)
    c = CHECK_RADIUS
    ops = []
    for h in range(pet.half_edge_count):
        ops.append(series_op(
            f"Petersen vertex arc {h}", "small", pet, pet_v, "arc", 900,
            [arc_size(3, 3, r) for r in range(901)],
            lambda h=h: list(cover.arc_vertex_layers(pet, h, c)), base=h))
    for h in range(k34.half_edge_count):
        dt, dh = k34.degree(k34.tail(h)), k34.degree(k34.head(h))
        ops.append(series_op(
            f"K(3,4) edge arc {h}", "small", k34, k34_e, "arc", 700,
            [arc_size(dt, dh, r + 1) for r in range(701)],
            lambda h=h: list(cover.arc_edge_layers(k34, h, c)), base=h))
    ops.append(series_op(
        "Petersen edge sphere", "small", pet, pet_e, "edge-sphere", 600,
        [3 * arc_size(3, 3, r + 1) for r in range(601)],
        lambda: [cover.sphere_edges(pet, 0, r) for r in range(c + 1)], root=0))
    ops.append(series_op(
        "Petersen tube", "small", pet, pet_v, "tube", 600,
        # k members of a subtree in a cubic tree have k + 2 boundary arcs
        [len(tube)] + [(len(tube) + 2) * arc_size(3, 3, r) for r in range(1, 601)],
        lambda: [cover.tube_vertices(pet, tube, r) for r in range(c + 1)], subtree=tube))
    ops.append(series_op(
        "cubic-1000 vertex sphere", "large", big, big_v, "sphere", 400,
        [1] + [3 * arc_size(3, 3, r) for r in range(1, 401)],
        lambda: [cover.sphere_vertices(big, 0, r) for r in range(c + 1)], root=0))
    ops.append(series_op(
        "cubic-1000 edge arc", "large", big, big_e, "arc", 400,
        [arc_size(3, 3, r + 1) for r in range(401)],
        lambda: list(cover.arc_edge_layers(big, 0, c)), base=0))
    ops.append(series_op(
        "Petersen horocycle", "special", pet, pet_v, "horocycle", 300,
        [arc_size(3, 3, r + 1) for r in range(301)],
        lambda: [cover.horocycle_subset(pet, outer, r) for r in range(c + 1)], geodesic=outer))
    return ops


# --- oracle_crosscheck ---

def oracle_arcs(g, f, base, vertices):
    """Enumerated arc layers against one transfer series, radii 0..ORACLE_RADIUS."""
    layers = cover.arc_vertex_layers if vertices else cover.arc_edge_layers
    sums_of = cover.arc_vertex_sums if vertices else cover.arc_edge_sums
    enumerated = [(len(s), cover.set_average(f, s)) for s in layers(g, base, ORACLE_RADIUS)]
    sizes, sums = sums_of(g, f, base, ORACLE_RADIUS)
    return enumerated, sizes, [s / n for s, n in zip(sums, sizes)]


def oracle_tube(g, f, members):
    enumerated = []
    for r in range(ORACLE_RADIUS + 1):
        s = cover.tube_vertices(g, members, r)
        enumerated.append((len(s), cover.set_average(f, s)))
    report = analysis.deviation_series(g, f, set_kind="tube", radius=ORACLE_RADIUS, subtree=members)
    return enumerated, report.sizes, report.averages


def oracle_ops(w):
    ops, built = [], {}
    graphs = (
        ("k4", "small", fixed_edges("complete", 4)),
        ("petersen", "small", fixed_edges("petersen")),
        ("k33", "small", fixed_edges("complete_bipartite", 3, 3)),
        ("k34", "large", fixed_edges("complete_bipartite", 3, 4)),
    )
    for name, cls, edges in graphs:
        _, g, _ = w.graph(name, *edges)
        fv, fe = w.vertex_field(f"{name}_v", g), w.edge_field(f"{name}_e", g)
        built[name] = g, fv
        for h in range(g.half_edge_count):
            ops.append(Op(f"{name} vertex arcs {h}", cls,
                          lambda g=g, f=fv, h=h: oracle_arcs(g, f, h, True), check_agreement))
            ops.append(Op(f"{name} edge arcs {h}", cls,
                          lambda g=g, f=fe, h=h: oracle_arcs(g, f, h, False), check_agreement))
    pet, pet_v = built["petersen"]
    tube = star(pet, 0)
    ops.append(Op("Petersen sphere decomposition", "special",
                  lambda: analysis.check_sphere_decomposition(pet, 0, pet_v, ORACLE_RADIUS),
                  lambda ok: None if ok is True else "spheres do not decompose into arcs"))
    ops.append(Op("Petersen tube", "special", lambda: oracle_tube(pet, pet_v, tube), check_agreement))
    return ops


WORKLOADS = {
    "verify_ladder": verify_ops,
    "series_deep": series_ops,
    "oracle_crosscheck": oracle_ops,
}


def make_ops(workload, rng, directory):
    """Write one seeded input set into ``directory``; returns (ops, file digests)."""
    directory.mkdir(parents=True, exist_ok=True)
    writer = InputWriter(directory, rng)
    return WORKLOADS[workload](writer), writer.digests
