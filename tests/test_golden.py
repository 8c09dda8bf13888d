"""Byte-for-byte CLI outputs against the golden files in tests/data/golden.

The goldens pin every check name, verdict and recursion residual of
``verify --radius 12`` and every row of the ``spectrum`` CSV for the three
regimes, both orientations of the semiregular base included, and every row
of two deep ``average`` CSVs.  The seeded cubic-60 and cubic-400 graphs are
committed files, so their goldens need no generator.
"""

from pathlib import Path

import pytest

from covertree import cover, graph_core, spectral
from covertree.cli import main

import reference_envelope

GOLDEN = Path(__file__).parent / "data" / "golden"

GRAPHS = {
    "petersen": ("petersen",),
    "k33": ("complete_bipartite", 3, 3),
    "k34": ("complete_bipartite", 3, 4),
}


@pytest.fixture()
def graph_file(tmp_path):
    def write(name):
        if name not in GRAPHS:
            return str(GOLDEN / f"{name}.g")
        path = tmp_path / f"{name}.g"
        graph_core.save_graph(graph_core.generate(*GRAPHS[name]), path)
        return str(path)
    return write


@pytest.mark.parametrize("stem,name,theorem,base", [
    ("petersen-t1", "petersen", 1, None),
    ("petersen-t2", "petersen", 2, None),
    ("k33-t2", "k33", 2, None),
    ("k34-t3-b03", "k34", 3, ("0", "3")),
    ("k34-t3-b30", "k34", 3, ("3", "0")),
    ("cubic60-t1", "cubic60", 1, None),
    ("cubic60-t2", "cubic60", 2, None),
])
def test_verify_matches_golden(stem, name, theorem, base, graph_file, tmp_path, capsys):
    dest = tmp_path / "checks.json"
    argv = ["verify", "--graph", graph_file(name), "--theorem", str(theorem),
            "--radius", "12", "-o", str(dest)]
    if base:
        argv += ["--base", *base]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode("ascii")
    assert out == (GOLDEN / f"{stem}.verify.txt").read_bytes()
    assert dest.read_bytes() == (GOLDEN / f"{stem}.verify.json").read_bytes()


@pytest.mark.parametrize("stem,name,theorem", [
    ("petersen-t1", "petersen", 1),
    ("petersen-t2", "petersen", 2),
    ("k33-t2", "k33", 2),
    ("k34-t3", "k34", 3),
])
def test_spectrum_matches_golden(stem, name, theorem, graph_file, tmp_path):
    dest = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--graph", graph_file(name), "--theorem", str(theorem),
                 "-o", str(dest)]) == 0
    assert dest.read_bytes() == (GOLDEN / f"{stem}.spectrum.csv").read_bytes()


def test_k34_spectrum_gap_boundary_row_is_correctly_rounded():
    # the eigenvalue 0.19999999999999996 sits just below the gap boundary 1/5,
    # where the rate is 0.70710678118654744590..., so ...547 at 15 digits
    g = graph_core.generate(*GRAPHS["k34"])
    mu = spectral.eig_sym(spectral.theorem_laplacian(g, 3)[0]).distinct[1]
    row = (GOLDEN / "k34-t3.spectrum.csv").read_text().splitlines()[2].split(",")
    reference = reference_envelope.reference_rate(mu, cover.EDGES, 2, 3)[0]
    assert row[0] == f"{mu:.15g}" == "0.2" and mu < 0.2
    assert row[2] == f"{reference:.15g}" == "0.707106781186547"


def test_deep_sphere_average_matches_golden(tmp_path, monkeypatch):
    # 1,200 half-edges, so the transfer steps with its predecessor gather; the
    # sphere's three arcs repeat and copy their rows well before radius 400; the
    # default cap bounds the radius alone, so sets past 10**7 elements run
    monkeypatch.delenv("COVERTREE_BUDGET", raising=False)
    graph = GOLDEN / "cubic400.g"
    assert graph_core.load_graph(graph).half_edge_count >= cover._GATHER_MIN
    dest = tmp_path / "sphere.csv"
    assert main(["average", "--graph", str(graph), "--field", str(GOLDEN / "cubic400.fld"),
                 "--set", "sphere", "--root", "0", "--radius", "400", "-o", str(dest)]) == 0
    assert dest.read_bytes() == (GOLDEN / "cubic400-sphere.average.csv").read_bytes()


def test_deep_semiregular_arc_average_matches_golden(graph_file, tmp_path, monkeypatch):
    # two half-edge classes, whose sizes are running products of 2 and 3: near
    # 2**905 at radius 700, at the default cap
    monkeypatch.delenv("COVERTREE_BUDGET", raising=False)
    dest = tmp_path / "arc.csv"
    assert main(["average", "--graph", graph_file("k34"), "--field", str(GOLDEN / "k34e.fld"),
                 "--set", "arc", "--base", "0", "3", "--radius", "700", "-o", str(dest)]) == 0
    assert dest.read_bytes() == (GOLDEN / "k34-arc.average.csv").read_bytes()
