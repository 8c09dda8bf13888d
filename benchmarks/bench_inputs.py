"""Seeded benchmark inputs.

Every graph, field and anchor of a run is drawn from the workload seed and
written to files in the documented text formats; the library only ever sees
those files.  Fixed graphs (K4, Petersen, K(3,3), K(3,4)) get a seeded
relabelling of their vertices and edge order, so that a seed changes every
input without changing the amount of work.
"""

from __future__ import annotations

import hashlib
import random

from covertree import cover, graph_core


def rng_for(workload, seed, index):
    """Random stream of input set ``index`` of a run; string seeds hash the
    same way on every platform and under every PYTHONHASHSEED."""
    return random.Random(f"{workload}/{seed}/{index}")


def cubic_edges(n, rng):
    """A cubic graph: ``cycle_with_chords`` on n (even) vertices plus a seeded
    perfect chord matching, redrawn until it is simple and not bipartite."""
    while True:
        ends = list(range(n))
        rng.shuffle(ends)
        chords = list(zip(ends[::2], ends[1::2]))
        if any((u - v) % n in (1, n - 1) for u, v in chords):
            continue  # chord parallel to a cycle edge: not simple
        if all((u - v) % 2 for u, v in chords):
            continue  # every chord joins the even cycle's two colour classes
        flat = [x for chord in chords for x in chord]
        return list(graph_core.generate("cycle_with_chords", n, *flat).edges())


def relabel(n, edges, rng):
    """Seeded vertex permutation and edge order; returns (permutation, edges)."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return perm, out


def fixed_edges(name, *params):
    g = graph_core.generate(name, *params)
    return g.vertex_count, list(g.edges())


class InputWriter:
    """Writes input files into one directory and records their digests."""

    def __init__(self, directory, rng):
        self.directory = directory
        self.rng = rng
        self.digests = {}

    def _write(self, name, text):
        path = self.directory / name
        data = text.encode("ascii")
        path.write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()[:16]
        return path

    def graph(self, name, n, edges):
        """Relabel, write and reload a graph; returns (path, graph, permutation)."""
        perm, edges = relabel(n, edges, self.rng)
        lines = [f"graph {n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        path = self._write(f"{name}.g", "\n".join(lines) + "\n")
        return path, graph_core.load_graph(path), perm

    def field(self, name, support, count):
        values = [self.rng.uniform(-1.0, 1.0) for _ in range(count)]
        lines = [f"field {support} {count}"] + [f"{i} {v!r}" for i, v in enumerate(values)]
        return cover.load_field(self._write(f"{name}.fld", "\n".join(lines) + "\n"))

    def vertex_field(self, name, g):
        return self.field(name, cover.VERTICES, g.vertex_count)

    def edge_field(self, name, g):
        return self.field(name, cover.EDGES, g.edge_count)

    def geodesic(self, name, g, cycle):
        """Geodesic file walking once around the closed vertex cycle ``cycle``."""
        steps = [f"{u} {v} 0" for u, v in zip(cycle, cycle[1:] + cycle[:1])]
        path = self._write(f"{name}.geo", "\n".join([f"geodesic {len(cycle)}"] + steps) + "\n")
        return cover.load_geodesic(g, path)
