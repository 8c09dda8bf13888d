import contextlib
import io
import json
import re
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertree import analysis, cover, graph_core, spectral
from covertree.cli import _ANCHOR_OPTIONS, checks_to_json, generic_field, main, random_field
from covertree.cover import EDGES, VERTICES
from covertree.errors import SizeOutOfRangeError


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


def test_field_sum_past_float_range_exits_3(tmp_path, k4_file, capsys):
    field = tmp_path / "huge.fld"
    field.write_text("field vertices 4\n0 1e308\n1 1e308\n2 0.25\n3 1.0\n")
    assert main(["average", "--graph", k4_file, "--field", str(field),
                 "--set", "arc", "--base", "0", "1", "--radius", "4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "past the float range" in err
    with pytest.raises(SizeOutOfRangeError, match="sum of 4 field values"):
        cover.graph_average(cover.load_field(str(field)))


@pytest.mark.parametrize("anchor", [["--set", "arc", "--base", "0", "1"],
                                    ["--set", "sphere", "--root", "0"]])
def test_field_span_past_float_range_exits_3(tmp_path, k4_file, capsys, anchor):
    # 1e308 - (-1e308) is past the float range: the values cannot be centred on
    # one of them, and the error says so before any step, with no numpy warning
    field = tmp_path / "wide.fld"
    field.write_text("field vertices 4\n0 1e308\n1 -1e308\n2 0.5\n3 0.25\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["average", "--graph", k4_file, "--field", str(field), *anchor,
                   "--radius", "4"])
    assert rc == 3
    assert capsys.readouterr().err == "error: the field's values span past the float range\n"


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


# Tokens of the four input formats plus hostile values, so fuzzed files get
# past the header checks as well as failing at them.
_FUZZ_TOKENS = [b"graph", b"field", b"vertices", b"edges", b"geodesic", b"tube", b"loops",
                b"multi", b"0", b"1", b"2", b"3", b"4", b"5", b"9", b"10", b"15", b"-1",
                b"99999", b"0.5", b"1e308", b"-1e308", b"nan", b"inf", b".", b"#",
                b"\n", b"\t", b"\xff", b"\x00"]


def _fuzz_bytes(valid):
    """Arbitrary bytes, a soup of format tokens, or ``valid`` with up to three
    of its tokens replaced."""
    parts = re.split(rb"(\s+)", valid)   # tokens at even indices

    def edit(edits):
        out = list(parts)
        for i, token in edits:
            out[2 * i] = token
        return b"".join(out)

    token = st.one_of(st.sampled_from(_FUZZ_TOKENS), st.integers(-2, 99).map(b"%d".__mod__))
    return st.one_of(
        st.binary(max_size=200),
        st.lists(token, max_size=40).map(b" ".join),
        st.lists(st.tuples(st.integers(0, len(parts) // 2), token), min_size=1, max_size=3).map(edit),
    )


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid Petersen graph, field, geodesic and tube files; fuzzing replaces one."""
    d = tmp_path_factory.mktemp("fuzz")
    g = graph_core.generate("petersen")
    files = {"graph": d / "pet.g", "field": d / "v.fld", "geodesic": d / "outer.geo",
             "tube": d / "x.tube"}
    graph_core.save_graph(g, files["graph"])
    cover.save_field(random_field(g, VERTICES, 9), files["field"])
    geo = cover.GeodesicSpec(tuple(g.half_edge(i, (i + 1) % 5) for i in range(5)))
    files["geodesic"].write_text(cover.write_geodesic(g, geo))
    files["tube"].write_text("tube 0 1\n.\n")
    return d, files


def _fuzz_argvs(files, kind, bad):
    files = dict(files, **{kind: bad})
    average = ["average", "--graph", str(files["graph"]), "--field", str(files["field"]),
               "--radius", "3"]
    spectrum = ["spectrum", "--graph", str(files["graph"]), "--theorem", "1"]
    if kind == "graph":
        return [["classify", "--graph", str(bad)],
                average + ["--set", "arc", "--base", "0", "1"], spectrum]
    if kind == "field":
        return [average + ["--set", "arc", "--base", "0", "1"],
                average + ["--set", "edge-sphere", "--root", "0"], spectrum + ["--field", str(bad)]]
    if kind == "geodesic":
        return [average + ["--set", "horocycle", "--geodesic", str(bad)]]
    return [average + ["--set", "tube", "--tube", str(bad)]]


@pytest.mark.parametrize("kind", ["graph", "field", "geodesic", "tube"])
@given(draw=st.data())
@settings(max_examples=100, deadline=None)
def test_arbitrary_input_files_exit_cleanly(fuzz_inputs, kind, draw):
    # an uncaught exception fails the test; anything else must be 0, 2 or 3
    directory, files = fuzz_inputs
    data = draw.draw(_fuzz_bytes(files[kind].read_bytes()), label="file")
    bad = directory / f"fuzzed.{kind}"
    bad.write_bytes(data)
    for argv in _fuzz_argvs(files, kind, bad):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 2, 3), argv
        assert rc == 0 or err.getvalue().startswith("error:"), argv


def _break(text, fault):
    """A valid input file's text with one fault: emptied, a wrong header
    keyword, its last record line dropped, that line made unreadable, or made
    to name vertex 99, which Petersen does not have."""
    lines = text.splitlines()
    if fault == "empty":
        return ""
    if fault == "header":
        return "\n".join(["bogus" + lines[0][lines[0].index(" "):]] + lines[1:]) + "\n"
    if fault == "count":
        return "\n".join(lines[:-1]) + "\n"
    return "\n".join(lines[:-1] + ["x" if fault == "record" else "0 99"]) + "\n"


@pytest.mark.parametrize("fault", ["empty", "header", "count", "record", "range"])
@pytest.mark.parametrize("kind", ["graph", "field", "geodesic", "tube"])
def test_malformed_input_files_exit_3(kind, fault, fuzz_inputs, tmp_path, capsys):
    _, files = fuzz_inputs
    bad = tmp_path / f"bad.{kind}"
    bad.write_text(_break(files[kind].read_text(), fault))
    last = len(bad.read_text().splitlines())
    for argv in _fuzz_argvs(files, kind, bad):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        if fault == "range" and kind in ("geodesic", "tube"):  # graph and field ids: file-wide
            assert err.startswith(f"error: line {last}: bad "), err


def test_malformed_record_names_its_line(tmp_path, petersen_file, capsys):
    g = graph_core.load_graph(petersen_file)
    tube = tmp_path / "bad.tube"
    tube.write_text("# members\ntube 0 2\n.\n\nx\n")
    assert main(["average", "--graph", petersen_file,
                 "--field", _write_field(tmp_path, g, VERTICES, 9),
                 "--set", "tube", "--tube", str(tube), "--radius", "3"]) == 3
    assert capsys.readouterr().err.startswith("error: line 5: bad member 'x'")


def test_tube_root_out_of_range_exits_3(tmp_path, petersen_file, capsys):
    g = graph_core.load_graph(petersen_file)
    tube = tmp_path / "far.tube"
    tube.write_text("tube 99 1\n.\n")
    assert main(["average", "--graph", petersen_file,
                 "--field", _write_field(tmp_path, g, VERTICES, 9),
                 "--set", "tube", "--tube", str(tube), "--radius", "3"]) == 3
    assert capsys.readouterr().err.startswith("error: root vertex 99 out of range")


def test_vertex_count_beyond_the_edges_fails_before_allocating(tmp_path, capsys):
    # m edges connect at most m + 1 vertices; the header alone rejects more
    big = tmp_path / "big.g"
    big.write_text("graph 1000000 1\n0 1\n")
    assert main(["classify", "--graph", str(big)]) == 3
    assert capsys.readouterr().err == "error: 1 edges cannot connect 1000000 vertices\n"


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


@pytest.mark.parametrize("options,message", [
    (["--set", "arc"], "arc runs need --base u v [k]"),
    (["--set", "sphere"], "sphere runs need --root"),
    (["--set", "edge-sphere"], "edge-sphere runs need --root"),
    (["--set", "tube"], "tube runs need --tube FILE"),
    (["--set", "horocycle"], "horocycle runs need --geodesic FILE"),
    (["--set", "sphere", "--root", "99"], "root vertex 99 out of range 0 .. 9"),
    (["--set", "edge-sphere", "--root", "-1"], "root vertex -1 out of range 0 .. 9"),
    (["--set", "arc", "--base", "0", "1", "--radius", "1"], "need --radius >= 2"),
])
def test_average_anchor_errors_exit_2(tmp_path, petersen_file, capsys, options, message):
    g = graph_core.load_graph(petersen_file)
    field = _write_field(tmp_path, g, VERTICES, 9)
    radius = [] if "--radius" in options else ["--radius", "8"]
    assert main(["average", "--graph", petersen_file, "--field", field,
                 *options, *radius]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_anchor_keyword_has_an_average_option():
    assert set(_ANCHOR_OPTIONS) == set(analysis.SET_ANCHORS.values())


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


def test_rate_gates_on_the_envelope_at_every_k4_base(tmp_path, k4_file, capsys):
    # the calibrated constant fails at r = 7, 13 or 14 on this correct data
    # (criterion 3); to radius 18 the rigorous envelope holds at all 12 bases,
    # and the calibrated verdict is printed as information
    g = graph_core.load_graph(k4_file)
    field = tmp_path / "ind.fld"
    cover.save_field(cover.indicator_field(g, VERTICES, 0), field)
    calibrated = []
    for h in range(g.half_edge_count):
        dest = tmp_path / f"rate{h}.json"
        assert main(["rate", "--graph", k4_file, "--field", str(field), "--theorem", "1",
                     "--base", str(g.tail(h)), str(g.head(h)), "--radius", "18",
                     "-o", str(dest)]) == 0
        assert json.loads(dest.read_text())["verdict"] == "pass"
        out = capsys.readouterr().out
        assert "; envelope pass; " in out
        calibrated.append(re.search(r"INFO calibrated bound: (pass|fail)", out).group(1))
    assert calibrated == ["fail"] * 12


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rate_bound_past_the_float_range_exits_3(tmp_path, petersen_file, fmt, capsys):
    field = _write_field(tmp_path, graph_core.load_graph(petersen_file), VERTICES, 9)
    assert main(["rate", "--graph", petersen_file, "--field", field, "--theorem", "1",
                 "--base", "0", "1", "--override-beta", "1e30", "--format", fmt]) == 3
    assert capsys.readouterr().err == "error: rate 1e+30 gives a bound past the float range at r=11\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_rate_constant_field_with_a_huge_beta_exits_0_in_both_formats(tmp_path, petersen_file,
                                                                      fmt, capsys):
    # every deviation is zero, so no bound is tested and none is computed or printed
    field = tmp_path / "const.fld"
    cover.save_field(cover.constant_field(graph_core.load_graph(petersen_file), VERTICES, 1.0),
                     field)
    dest = tmp_path / f"rate.{fmt}"
    assert main(["rate", "--graph", petersen_file, "--field", str(field), "--theorem", "1",
                 "--base", "0", "1", "--override-beta", "1e30", "--format", fmt,
                 "-o", str(dest)]) == 0
    assert capsys.readouterr().err == ""
    if fmt == "csv":
        assert all(line.endswith(",") for line in dest.read_text().splitlines()[1:])
    else:
        assert json.loads(dest.read_text())["verdict"] == "pass"


def test_rate_csv_prints_the_tested_bounds(tmp_path, k4_file):
    g = graph_core.load_graph(k4_file)
    field = tmp_path / "ind.fld"
    cover.save_field(cover.indicator_field(g, VERTICES, 0), field)
    dest = tmp_path / "rate.csv"
    assert main(["rate", "--graph", k4_file, "--field", str(field), "--theorem", "1",
                 "--base", "0", "1", "--radius", "10", "--format", "csv", "-o", str(dest)]) == 0
    rows = [line.split(",") for line in dest.read_text().splitlines()[1:]]
    beta = 2 ** -0.5
    c_hat = max(float(d) / beta ** int(r) for r, _, _, d, _ in rows[:5])
    # empty over the calibration radii 0..4, c_hat * beta**r after them
    assert [b for *_, b in rows[:5]] == [""] * 5
    assert all(float(d) > 1e-13 for *_, d, _ in rows[5:])
    assert [float(b) for *_, b in rows[5:]] == pytest.approx(
        [c_hat * beta ** r for r in range(5, 11)], rel=1e-12)


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


def test_parser_built_once_serves_every_call_alike(tmp_path, petersen_file, capsys):
    # the parser is built once per process; a rate call in between leaves no trace
    verify = ["verify", "--graph", petersen_file, "--theorem", "1"]
    first = main(verify), capsys.readouterr().out
    field = _write_field(tmp_path, graph_core.load_graph(petersen_file), VERTICES, 3)
    assert main(["rate", "--graph", petersen_file, "--field", field, "--theorem", "1",
                 "--base", "0", "1"]) == 0
    capsys.readouterr()
    assert (main(verify), capsys.readouterr().out) == first
    assert first[0] == 0 and "PASS" in first[1]


@pytest.mark.parametrize("generator,theorem", [
    (("petersen",), 1), (("petersen",), 2), (("complete_bipartite", 3, 4), 3),
])
def test_verify_eigensolves_once(generator, theorem, tmp_path, monkeypatch):
    path = tmp_path / "g.g"
    graph_core.save_graph(graph_core.generate(*generator), path)
    calls = []
    real_eig_sym = spectral.eig_sym

    def counting_eig_sym(lap):
        calls.append(lap.support)
        return real_eig_sym(lap)

    monkeypatch.setattr(spectral, "eig_sym", counting_eig_sym)
    assert main(["verify", "--graph", str(path), "--theorem", str(theorem)]) == 0
    assert len(calls) == 1


def test_verify_takes_each_eigenvalue_rate_once(k34, tmp_path, monkeypatch, capsys):
    # the rates come from the random field's prediction, one Regime.rates call
    # over the distinct eigenvalues; K(3,4)'s rates do not depend on the base's orientation
    path = tmp_path / "k34.g"
    graph_core.save_graph(k34, path)
    distinct = spectral.eig_sym(spectral.theorem_laplacian(k34, 3)[0]).distinct
    real_rates, calls, rates = spectral.Regime.rates, [], []

    def counting_rates(self, mus):
        calls.append(mus.tolist())
        return real_rates(self, mus)

    monkeypatch.setattr(spectral.Regime, "rates", counting_rates)
    for base in (("0", "3"), ("3", "0")):
        calls.clear()
        assert main(["verify", "--graph", str(path), "--theorem", "3", "--base", *base]) == 0
        assert calls == [list(distinct)]
        rates.append(re.findall(r"envelope (mu=\S+ \[\d+\]): rate (\S+),", capsys.readouterr().out))
    assert rates[0] == rates[1] and len(rates[0]) == k34.edge_count - 1


def test_verify_rejects_usage_errors_before_the_eigensolve(k4_file, monkeypatch, capsys):
    def no_eig_sym(lap):
        raise AssertionError("verify eigensolved before checking its arguments")

    monkeypatch.setattr(spectral, "eig_sym", no_eig_sym)
    assert main(["verify", "--graph", k4_file, "--theorem", "1", "--radius", "3"]) == 2
    assert capsys.readouterr().err == "error: need --radius >= 4\n"
    assert main(["verify", "--graph", k4_file, "--theorem", "1", "--base", "0", "9"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_bound_past_the_float_range_exits_3(petersen_file, capsys):
    assert main(["verify", "--graph", petersen_file, "--theorem", "1",
                 "--override-beta", "1e30"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: rate 1e+30 gives a bound past the float range at r=")
    assert err.count("\n") == 1


def test_verify_override_beta_fails(k4_file):
    assert main(["verify", "--graph", k4_file, "--theorem", "1",
                 "--override-beta", "0.3535533905932738"]) == 1


_TEXT = st.text(st.characters(codec="utf-8"), max_size=12) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u2028", "\U0001f600", "mu=-0.666666667 [3]"])


@given(st.lists(st.builds(lambda name, passed, detail: {"name": name, "passed": passed,
                                                         "detail": detail},
                          _TEXT, st.booleans(), _TEXT), max_size=5))
@settings(max_examples=200, deadline=None)
def test_checks_json_is_json_dumps_byte_for_byte(checks):
    # the keys in verify's order; names and details with quotes, backslashes,
    # control characters and non-ASCII text
    assert checks_to_json(checks) == json.dumps({"checks": checks}, indent=2)


# --- rate and verify options ---

_HOSTILE_BETAS = ["0", "1e-300", "0.5", "2", "1e30", "1e308", "inf", "nan", "-3"]


@pytest.fixture(scope="module")
def rate_inputs(tmp_path_factory):
    """Petersen (theorems 1, 2) and K(3,4) (theorem 3) with a random field on
    each regime's support."""
    d = tmp_path_factory.mktemp("rate")
    cases = []
    for name, g, theorems in [("pet", graph_core.generate("petersen"), (1, 2)),
                              ("k34", graph_core.generate("complete_bipartite", 3, 4), (3,))]:
        graph_core.save_graph(g, d / f"{name}.g")
        for theorem in theorems:
            support = VERTICES if theorem == 1 else EDGES
            field = _write_field(d, g, support, theorem, name=f"{name}{theorem}.fld")
            cases.append((str(d / f"{name}.g"), g, theorem, field))
    return cases


@given(draw=st.data())
@settings(max_examples=60, deadline=None)
def test_rate_and_verify_options_exit_cleanly(rate_inputs, draw):
    # an uncaught exception fails the test; exit 1 needs a failed check on stdout
    graph, g, theorem, field = draw.draw(st.sampled_from(rate_inputs), label="case")
    beta = draw.draw(st.one_of(st.sampled_from(_HOSTILE_BETAS), st.floats().map(repr)),
                     label="beta")
    radius = draw.draw(st.integers(2, 40), label="radius")
    h = draw.draw(st.integers(0, g.half_edge_count - 1), label="base")
    options = ["--graph", graph, "--theorem", str(theorem), "--radius", str(radius),
               f"--override-beta={beta}",  # with "=", "-3" is read as a value
               "--base", str(g.tail(h)), str(g.head(h))]
    fmt = draw.draw(st.sampled_from(["json", "csv"]), label="format")
    for argv in (["rate", "--field", field, "--format", fmt, *options], ["verify", *options]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        assert rc in (0, 1, 2, 3), argv
        failed = re.search(r"^FAIL |\b(bound|envelope) fail\b", out.getvalue(), re.M)
        assert (rc == 1) <= bool(failed), argv
        assert rc in (0, 1) or err.getvalue().startswith("error:"), argv
