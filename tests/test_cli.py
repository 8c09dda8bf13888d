import json
from pathlib import Path

import pytest

from covertree import cover, graph_core, spectral
from covertree.cli import generic_field, main, random_field
from covertree.cover import EDGES, VERTICES


@pytest.fixture()
def k4_file(tmp_path):
    path = tmp_path / "k4.g"
    graph_core.save_graph(graph_core.generate("complete", 4), path)
    return str(path)


@pytest.fixture()
def petersen_file(tmp_path):
    path = tmp_path / "pet.g"
    graph_core.save_graph(graph_core.generate("petersen"), path)
    return str(path)


def _write_field(tmp_path, g, support, seed, name="f.fld"):
    path = tmp_path / name
    cover.save_field(random_field(g, support, seed), path)
    return str(path)


# --- random fields ---

def test_random_field_deterministic(k4):
    a = random_field(k4, VERTICES, 7)
    b = random_field(k4, VERTICES, 7)
    assert list(a.values) == list(b.values)
    c = random_field(k4, VERTICES, 8)
    assert list(a.values) != list(c.values)
    assert all(-1.0 <= v < 1.0 for v in a.values)


def test_random_field_known_first_value(k4):
    # seed 0: first state is the LCG increment; value = (state >> 11) / 2**53 * 2 - 1
    state = 1442695040888963407
    expected = (state >> 11) / float(1 << 53) * 2.0 - 1.0
    assert random_field(k4, VERTICES, 0).values[0] == expected


def test_generic_field_active_everywhere(petersen):
    decomp = spectral.eig_sym(spectral.vertex_laplacian(petersen))
    f = generic_field(petersen, VERTICES, 1, decomp)
    _, norms = spectral.fourier_coefficients(f, decomp)
    assert all(n > spectral.ACTIVITY_TOL for n in norms)


# --- gen / classify ---

def test_gen_and_classify(tmp_path, capsys):
    out = tmp_path / "k34.g"
    assert main(["gen", "complete_bipartite", "3", "4", "-o", str(out)]) == 0
    g = graph_core.load_graph(str(out))
    assert g.vertex_count == 7 and g.edge_count == 12
    assert main(["classify", "--graph", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert "kind=semiregular" in line and "p=2" in line and "q=3" in line


def test_gen_unknown_generator(tmp_path):
    assert main(["gen", "moebius", "-o", str(tmp_path / "x.g")]) == 2


def test_gen_bad_params(tmp_path):
    assert main(["gen", "petersen", "3", "-o", str(tmp_path / "x.g")]) == 2


def test_gen_out_of_range_chord_is_usage_error(tmp_path, capsys):
    assert main(["gen", "cycle_with_chords", "4", "0", "9", "-o", str(tmp_path / "x.g")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "x.g").exists()


# --- usage and I/O errors ---

def test_usage_errors(tmp_path, k4_file):
    assert main(["unknown-command"]) == 2
    assert main(["verify", "--graph", k4_file]) == 2         # missing --theorem
    assert main(["verify", "--graph", k4_file, "--theorem", "9"]) == 2
    assert main(["average", "--graph", k4_file, "--field", "nope.fld",
                 "--set", "arc", "--base", "0", "1", "--radius", "6"]) == 3
    assert main(["classify", "--graph", str(tmp_path / "missing.g")]) == 3


def test_malformed_graph_file(tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("graph 2 1\n0 5\n")
    assert main(["classify", "--graph", str(bad)]) == 3


def test_non_finite_field_value(tmp_path, k4_file, capsys):
    field = tmp_path / "nan.fld"
    field.write_text("field vertices 4\n0 nan\n1 0.5\n2 0.25\n3 1.0\n")
    assert main(["average", "--graph", k4_file, "--field", str(field),
                 "--set", "arc", "--base", "0", "1", "--radius", "4"]) == 3
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("kind", ["graph", "field", "geodesic", "tube"])
def test_non_ascii_input_file(kind, tmp_path, petersen_file, capsys):
    g = graph_core.load_graph(petersen_file)
    files = {"graph": petersen_file, "field": _write_field(tmp_path, g, VERTICES, 9)}
    geo = cover.GeodesicSpec(tuple(g.half_edge(i, (i + 1) % 5) for i in range(5)))
    files["geodesic"] = tmp_path / "outer.geo"
    files["geodesic"].write_text(cover.write_geodesic(g, geo))
    files["tube"] = tmp_path / "x.tube"
    files["tube"].write_text("tube 0 2\n.\n0\n")
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(b"# caf\xc3\xa9\n" + Path(files[kind]).read_bytes())
    files[kind] = bad
    base = ["average", "--graph", str(files["graph"]), "--field", str(files["field"]),
            "--radius", "4"]
    if kind == "geodesic":
        argv = base + ["--set", "horocycle", "--geodesic", str(files["geodesic"])]
    elif kind == "tube":
        argv = base + ["--set", "tube", "--tube", str(files["tube"])]
    else:
        argv = base + ["--set", "arc", "--base", "0", "1"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_classification_gate_is_usage_error(tmp_path):
    k23 = tmp_path / "k23.g"
    graph_core.save_graph(graph_core.generate("complete_bipartite", 2, 3), k23)
    assert main(["verify", "--graph", str(k23), "--theorem", "3"]) == 2
    k33 = tmp_path / "k33.g"
    graph_core.save_graph(graph_core.generate("complete_bipartite", 3, 3), k33)
    assert main(["verify", "--graph", str(k33), "--theorem", "1"]) == 2


# --- spectrum ---

def test_spectrum_command(tmp_path, k4_file, capsys):
    assert main(["spectrum", "--graph", k4_file, "--theorem", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "mu,multiplicity,beta,kind,active"
    assert len(out.splitlines()) == 4  # eigenvalues 1, 0, -1/2
    # with a field, and written to a file
    g = graph_core.generate("complete", 4)
    field = _write_field(tmp_path, g, EDGES, 5)
    dest = tmp_path / "spec.csv"
    assert main(["spectrum", "--graph", k4_file, "--theorem", "2",
                 "--field", field, "-o", str(dest)]) == 0
    assert dest.read_text().splitlines()[0] == "mu,multiplicity,beta,kind,active"


# --- average ---

def test_average_arc_csv(tmp_path, petersen_file, capsys):
    g = graph_core.load_graph(petersen_file)
    field = _write_field(tmp_path, g, VERTICES, 9)
    assert main(["average", "--graph", petersen_file, "--field", field,
                 "--set", "arc", "--base", "0", "1", "--radius", "8"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,average,target,deviation,bound"
    assert len(lines) == 10


def test_average_missing_base(tmp_path, petersen_file):
    g = graph_core.load_graph(petersen_file)
    field = _write_field(tmp_path, g, VERTICES, 9)
    assert main(["average", "--graph", petersen_file, "--field", field,
                 "--set", "arc", "--radius", "8"]) == 2
    assert main(["average", "--graph", petersen_file, "--field", field,
                 "--set", "arc", "--base", "0", "7", "--radius", "8"]) == 2


def test_average_sphere_json(tmp_path, petersen_file):
    g = graph_core.load_graph(petersen_file)
    field = _write_field(tmp_path, g, VERTICES, 9)
    dest = tmp_path / "avg.json"
    assert main(["average", "--graph", petersen_file, "--field", field,
                 "--set", "sphere", "--root", "0", "--radius", "6",
                 "--format", "json", "-o", str(dest)]) == 0
    doc = json.loads(dest.read_text())
    assert doc["set_kind"] == "sphere"
    assert len(doc["averages"]) == 7


def test_average_horocycle_and_tube(tmp_path, petersen_file):
    g = graph_core.load_graph(petersen_file)
    field = _write_field(tmp_path, g, VERTICES, 9)
    geo_file = tmp_path / "outer.geo"
    geo = cover.GeodesicSpec(tuple(g.half_edge(i, (i + 1) % 5) for i in range(5)))
    geo_file.write_text(cover.write_geodesic(g, geo))
    assert main(["average", "--graph", petersen_file, "--field", field,
                 "--set", "horocycle", "--geodesic", str(geo_file),
                 "--radius", "6"]) == 0
    tube_file = tmp_path / "x.tube"
    tube_file.write_text("tube 0 2\n.\n0\n")
    assert main(["average", "--graph", petersen_file, "--field", field,
                 "--set", "tube", "--tube", str(tube_file), "--radius", "6"]) == 0


def test_average_deterministic_output(tmp_path, petersen_file):
    g = graph_core.load_graph(petersen_file)
    field = _write_field(tmp_path, g, VERTICES, 9)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["average", "--graph", petersen_file, "--field", field,
            "--set", "arc", "--base", "2", "3", "--radius", "9"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- rate ---

def test_rate_k4_indicator(tmp_path, k4_file):
    g = graph_core.load_graph(k4_file)
    field = tmp_path / "ind.fld"
    cover.save_field(cover.indicator_field(g, VERTICES, 0), field)
    dest = tmp_path / "rate.json"
    assert main(["rate", "--graph", k4_file, "--field", str(field),
                 "--theorem", "1", "--base", "0", "1", "-o", str(dest)]) == 0
    doc = json.loads(dest.read_text())
    assert doc["verdict"] == "pass"
    assert doc["predicted_beta"] == pytest.approx(2 ** -0.5)


def test_rate_override_beta_fails(tmp_path, k4_file):
    g = graph_core.load_graph(k4_file)
    field = tmp_path / "ind.fld"
    cover.save_field(cover.indicator_field(g, VERTICES, 0), field)
    dest = tmp_path / "rate.json"
    assert main(["rate", "--graph", k4_file, "--field", str(field),
                 "--theorem", "1", "--base", "0", "1",
                 "--override-beta", "0.3535533905932738", "-o", str(dest)]) == 1
    doc = json.loads(dest.read_text())
    assert doc["verdict"] == "fail"  # report still written


def test_rate_constant_field(tmp_path, k4_file):
    g = graph_core.load_graph(k4_file)
    field = tmp_path / "const.fld"
    cover.save_field(cover.constant_field(g, VERTICES, 1.0), field)
    assert main(["rate", "--graph", k4_file, "--field", str(field),
                 "--theorem", "1"]) == 0


# --- verify ---

def test_verify_k4_theorem1(tmp_path, k4_file, capsys):
    dest = tmp_path / "verify.json"
    assert main(["verify", "--graph", k4_file, "--theorem", "1",
                 "-o", str(dest)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    doc = json.loads(dest.read_text())
    assert doc["checks"] and all(c["passed"] for c in doc["checks"])


def test_verify_k4_theorem2(k4_file):
    assert main(["verify", "--graph", k4_file, "--theorem", "2"]) == 0


def test_verify_k34_theorem3(tmp_path):
    k34 = tmp_path / "k34.g"
    graph_core.save_graph(graph_core.generate("complete_bipartite", 3, 4), k34)
    assert main(["verify", "--graph", str(k34), "--theorem", "3"]) == 0


def test_verify_petersen_theorem1(petersen_file):
    assert main(["verify", "--graph", petersen_file, "--theorem", "1"]) == 0


@pytest.mark.parametrize("generator,theorem", [
    (("petersen",), 1), (("petersen",), 2), (("complete_bipartite", 3, 4), 3),
])
def test_verify_eigensolves_once(generator, theorem, tmp_path, monkeypatch):
    path = tmp_path / "g.g"
    graph_core.save_graph(graph_core.generate(*generator), path)
    calls = []
    real_eig_sym = spectral.eig_sym

    def counting_eig_sym(lap):
        calls.append(lap.kind)
        return real_eig_sym(lap)

    monkeypatch.setattr(spectral, "eig_sym", counting_eig_sym)
    assert main(["verify", "--graph", str(path), "--theorem", str(theorem)]) == 0
    assert len(calls) == 1


def test_verify_override_beta_fails(k4_file):
    assert main(["verify", "--graph", k4_file, "--theorem", "1",
                 "--override-beta", "0.3535533905932738"]) == 1
