"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
print.

Criterion 3 bounds the indicator-field deviations on the complete graph by
C * 2**(-r/2) with the closed-form constant C of the rigorous envelope, not
with a constant calibrated on radii 0..4.  The paper promises a constant; it
does not promise that one fitted on a finite window holds at later radii,
and here it does not.  The deviations obey s_{r+1} = -(s_r + s_{r-1})/2,
whose roots (-1 +- i*sqrt(7))/4 have modulus 2**-0.5 and an angle that is
not a rational multiple of pi, so the oscillation eventually exceeds any
constant calibrated on a finite window.  Exact rational arithmetic puts the
first overshoot of the radius<=4-calibrated constant at r = 13 for the bases
out of vertex 0 (17/2048 against (3/4) * 2**(-13/2), +0.17%), at r = 14 for
the bases into vertex 0 (+0.17%), and at r = 7 for the six bases that avoid
vertex 0 (3/64 against 2**(-9/2), +6.1%).  The calibrated verdict is still
printed on the criterion-3 line, as information only.
"""

import time

import numpy as np
import pytest

from covertree import analysis, cover, graph_core, spectral
from covertree.cli import generic_field, random_field
from covertree.cover import EDGES, VERTICES, ScalarField
from covertree.errors import TwinPairingError
from reference_bfs import busemann_value, tree_arc

Q_GRID = [(p, q) for p in (2, 3, 4, 5) for q in (2, 3, 4, 5)]

GENERATORS = {
    "k4": lambda: graph_core.generate("complete", 4),
    "petersen": lambda: graph_core.generate("petersen"),
    "k33": lambda: graph_core.generate("complete_bipartite", 3, 3),
    "k34": lambda: graph_core.generate("complete_bipartite", 3, 4),
    "k23": lambda: graph_core.generate("complete_bipartite", 2, 3),
}


def _line(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")


def _layer_averages(layers, basis):
    """Per-layer brute-force averages of every basis column at once, read at
    the base vertex (or edge) of every enumerated path."""
    return [basis[layer.ids(), :].mean(axis=0) for layer in layers]


def test_criterion_01_transfer_equals_enumeration():
    start = time.monotonic()
    worst = 0.0
    for name, make in GENERATORS.items():
        g = make()
        fv = random_field(g, VERTICES, 101)
        fe = random_field(g, EDGES, 102)
        for base in range(g.half_edge_count):
            for r, layer in enumerate(cover.arc_vertex_layers(g, base, 12)):
                diff = abs(cover.arc_average_transfer(g, fv, base, r)
                           - cover.set_average(fv, layer))
                worst = max(worst, diff)
            for r, layer in enumerate(cover.arc_edge_layers(g, base, 12)):
                diff = abs(cover.arc_average_transfer(g, fe, base, r)
                           - cover.set_average(fe, layer))
                worst = max(worst, diff)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    _line(1, "transfer equals enumeration (all generators, all bases, r<=12)",
          ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 30.0


def test_criterion_02_recursion_fidelity():
    worst = 0.0
    # vertex recursion on the complete graph and the 3-regular Moore graph
    for name in ("k4", "petersen"):
        g = GENERATORS[name]()
        decomp = spectral.eig_sym(spectral.vertex_laplacian(g))
        q = graph_core.classify(g).q
        rows = _layer_averages(cover.arc_vertex_layers(g, 0, 15), decomp.basis)
        for i, mu in enumerate(decomp.eigenvalues):
            series = [row[i] for row in rows]
            for n in range(1, 15):
                res = abs(series[n + 1] - (q + 1) / q * mu * series[n]
                          + series[n - 1] / q)
                worst = max(worst, res)
    # edge recursion on the complete graph
    k4 = GENERATORS["k4"]()
    de = spectral.eig_sym(spectral.edge_laplacian(k4))
    rows = _layer_averages(cover.arc_edge_layers(k4, 0, 15), de.basis)
    for i, mu in enumerate(de.eigenvalues):
        series = [row[i] for row in rows]
        for n in range(1, 14):
            res = abs(series[n + 1] + (2 - 1 - 2 * mu * 2) / 2 * series[n]
                      + series[n - 1] / 2)
            worst = max(worst, res)
    # double-step system on the semiregular graph, both base orientations
    k34 = GENERATORS["k34"]()
    ds = spectral.eig_sym(spectral.edge_laplacian(k34))
    for base in (k34.half_edge(0, 3), k34.half_edge(3, 0)):
        p_base = k34.degree(k34.tail(base)) - 1
        q_far = k34.degree(k34.head(base)) - 1
        rows = _layer_averages(cover.arc_edge_layers(k34, base, 13), ds.basis)
        for i, mu in enumerate(ds.eigenvalues):
            series = [row[i] for row in rows]
            a_mat = spectral.transfer_matrix(mu, p_base, q_far)
            for k in range(1, 7):  # all indices stay within n <= 14
                prev = np.array([series[2 * k - 1], series[2 * k - 2]])
                nxt = np.array([series[2 * k + 1], series[2 * k]])
                worst = max(worst, float(np.max(np.abs(nxt - a_mat @ prev))))
    ok = worst < 1e-9
    _line(2, "radial recursions match brute-force arc averages", ok,
          f"worst residual {worst:.2e}")
    assert ok


def test_criterion_03_k4_vertex_bound_and_fit():
    g = GENERATORS["k4"]()
    f = cover.indicator_field(g, VERTICES, 0)
    report = analysis.deviation_series(g, f, set_kind="arc", radius=18, base=0)
    prediction = spectral.rate_prediction(g, 1, f)
    report.predicted_beta = prediction.beta_max
    report.predicted_kind = prediction.beta_max_kind
    assert prediction.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    fitted = analysis.fit_rate(report)
    fit_ok = fitted is not None and abs(fitted - 2 ** -0.5) <= 0.15 * 2 ** -0.5
    # information only: no calibrated constant holds at every radius here
    # (see the module docstring)
    _, calibrated_ok = analysis.bound_check(report)
    calibrated = "held" if calibrated_ok else report.notes[0]
    # the closed-form constant: the rigorous envelope has the form
    # C * 2**(-r/2), dominates the deviation and is sharp, at every base
    failures = []
    constants = []
    sharpness = []
    for base in range(g.half_edge_count):
        series = analysis.deviation_series(g, f, set_kind="arc", radius=18, base=base)
        env = analysis.envelope_series(g, f, base, 1, 18)
        constants.append(env[0])
        if not analysis.envelope_check(series, env):
            failures.append(f"base {base}: {series.notes[0]}")
        for r in range(19):
            form = env[0] * 2 ** (-r / 2)
            if abs(env[r] - form) > 1e-12 * form:
                failures.append(f"base {base}: envelope {env[r]:.6e} at r={r} "
                                f"is not C * 2**(-r/2) with C = {env[0]:.6f}")
        sharp = max(dev / bound for dev, bound in zip(series.deviations, env))
        sharpness.append(sharp)
        if sharp < 0.99:
            failures.append(f"base {base}: envelope loose, max dev/env {sharp:.4f}")
    bound_ok = not failures
    _line(3, "indicator-field bound and fit on the complete graph",
          bound_ok and fit_ok,
          f"fit {fitted:.6f}; C {constants[0]:.6f} at base 0; "
          f"max dev/env >= {min(sharpness):.4f} at every base; "
          f"calibrated bound (information): {calibrated}")
    assert fit_ok
    assert bound_ok, "; ".join(failures)


def test_criterion_04_petersen_ramanujan_rate():
    g = GENERATORS["petersen"]()
    assert analysis.check_ramanujan(g)
    decomp = spectral.eig_sym(spectral.vertex_laplacian(g))
    f = generic_field(g, VERTICES, 1, decomp)
    prediction = spectral.rate_prediction(g, 1, f)
    rate_ok = prediction.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    report = analysis.deviation_series(g, f, set_kind="arc", radius=18, base=0)
    report.predicted_beta = prediction.beta_max
    report.predicted_kind = prediction.beta_max_kind
    _, bound_ok = analysis.bound_check(report)
    fitted = analysis.fit_rate(report)
    fit_ok = fitted is not None and abs(fitted - 2 ** -0.5) <= 0.15 * 2 ** -0.5
    ok = rate_ok and bound_ok and fit_ok
    _line(4, "Ramanujan rate on the Moore graph (seed 1)", ok,
          f"beta_max {prediction.beta_max:.6f}, fit {fitted:.6f}")
    assert ok


def test_criterion_05_k4_edge_regime():
    g = GENERATORS["k4"]()
    decomp = spectral.eig_sym(spectral.edge_laplacian(g))
    spec_ok = sorted(round(m, 9) for m in decomp.distinct) == [-0.5, 0.0, 1.0]
    assert spec_ok
    # eigenvector fields at -1/2 decay exactly like (-1/2)**r
    k_half = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 0.5) < 1e-9][0]
    ratio_ok = True
    for col in range(decomp.multiplicity(k_half)):
        f = ScalarField(EDGES, decomp.group_basis(k_half)[:, col])
        for base in range(g.half_edge_count):
            series = [cover.set_average(f, layer)
                      for layer in cover.arc_edge_layers(g, base, 10)]
            for n in range(11):
                if abs(series[n] - series[0] * (-0.5) ** n) > 1e-9:
                    ratio_ok = False
    assert ratio_ok
    # a mu = 0 eigenvector field obeys the calibrated 2**(-r/2) bound
    k_zero = [k for k, mu in enumerate(decomp.distinct) if abs(mu) < 1e-9][0]
    f0 = ScalarField(EDGES, decomp.group_basis(k_zero)[:, 0])
    report = analysis.deviation_series(g, f0, set_kind="arc", radius=10, base=0)
    report.predicted_beta = 2 ** -0.5
    report.predicted_kind = spectral.EXACT_GEOMETRIC
    _, bound_ok = analysis.bound_check(report)
    ok = spec_ok and ratio_ok and bound_ok
    _line(5, "edge regime on the complete graph", ok,
          "spectrum {1, 0, -1/2}; exact (-1/2)^r decay; mu=0 bound")
    assert ok


def test_criterion_06_k34_semiregular_regime():
    g = GENERATORS["k34"]()
    decomp = spectral.eig_sym(spectral.edge_laplacian(g))
    got = {round(mu, 9): decomp.multiplicity(k) for k, mu in enumerate(decomp.distinct)}
    spec_ok = got == {1.0: 1, 0.4: 2, 0.2: 3, -0.4: 6}
    gap_ok = analysis.check_lemma_gap(g)
    # extreme-eigenvalue fields: alternating steps -1/q, -1/p from the base side
    k_ext = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 0.4) < 1e-9][0]
    pattern_ok = True
    for base in (g.half_edge(3, 0), g.half_edge(0, 3)):
        q_far = g.degree(g.head(base)) - 1
        p_base = g.degree(g.tail(base)) - 1
        for col in range(decomp.multiplicity(k_ext)):
            f = ScalarField(EDGES, decomp.group_basis(k_ext)[:, col])
            series = [cover.set_average(f, layer)
                      for layer in cover.arc_edge_layers(g, base, 10)]
            expected = [series[0]]
            for n in range(10):
                expected.append(expected[-1] * (-1 / q_far if n % 2 == 0 else -1 / p_base))
            if any(abs(a - e) > 1e-9 for a, e in zip(series, expected)):
                pattern_ok = False
            # per-radius rate (pq)**-1/2: even radii carry exactly 6**(-n/2)
            for n in range(0, 11, 2):
                if abs(abs(series[n]) - abs(series[0]) * 6 ** (-n / 2)) > 1e-9:
                    pattern_ok = False
    assert pattern_ok
    f = generic_field(g, EDGES, 1, decomp)
    prediction = spectral.rate_prediction(g, 3, f)
    report = analysis.deviation_series(g, f, set_kind="arc", radius=14, base=0)
    report.predicted_beta = prediction.beta_max
    report.predicted_kind = prediction.beta_max_kind
    _, bound_ok = analysis.bound_check(report)
    ok = spec_ok and gap_ok and pattern_ok and bound_ok
    _line(6, "semiregular edge regime on K(3,4)", ok,
          f"spectrum ok; gap empty; beta_max {prediction.beta_max:.6f}")
    assert ok


def test_criterion_07_double_step_identities():
    worst = 0.0
    for p, q in Q_GRID:
        for mu in (1.0, -2 / (p + q)):
            t_plus, t_minus, _ = spectral.transfer_eigenvalues(mu, p, q)
            worst = max(worst, abs(t_plus - 1.0), abs(abs(t_minus) - 1 / (p * q)))
        # boundary moduli are the set {1/p, 1/q}; the two labels swap with the
        # ordering of p and q, so the set form is the label-stable statement
        for mu in ((p - 1) / (p + q), (q - 1) / (p + q)):
            t_plus, t_minus, _ = spectral.transfer_eigenvalues(mu, p, q)
            got = sorted([abs(t_plus), abs(t_minus)])
            want = sorted([1 / p, 1 / q])
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        roots = spectral.discriminant_roots(p, q)
        for mu in roots:
            t_plus, t_minus, d = spectral.transfer_eigenvalues(mu, p, q)
            # evaluate the double root through its centre: the square root of
            # the vanishing discriminant would cost half the float precision
            worst = max(worst, abs(abs(t_plus + t_minus) / 2 - (p * q) ** -0.5))
            assert abs(d) <= 1e-9
        rng = np.random.default_rng(10 * p + q)
        for mu in rng.uniform(-2 / (p + q), 1.0, size=20):
            t_plus, t_minus, _ = spectral.transfer_eigenvalues(mu, p, q)
            worst = max(worst, abs(t_plus * t_minus - 1 / (p * q)))
    ok = worst <= 1e-12
    _line(7, "double-step eigenvalue identities on the p,q grid", ok,
          f"worst error {worst:.2e}")
    assert ok


def test_criterion_08_bipartite_split():
    g = GENERATORS["k33"]()
    f = cover.indicator_field(g, VERTICES, 0)
    base = g.half_edge(0, 3)
    report, passed = analysis.check_bipartite_split(g, f, base, 16)
    targets_ok = all(
        t == pytest.approx(1 / 3 if r % 2 == 0 else 0.0, abs=1e-15)
        for r, t in zip(report.radii, report.targets)
    )
    # only the mu = 0 eigenspace feeds the parity deviations here, so each
    # parity decays exactly geometrically with ratio 1/2 per double step
    converge_ok = all(
        report.deviations[r + 2] == pytest.approx(report.deviations[r] / 2, abs=1e-12)
        for r in range(15)
    )
    ok = passed and targets_ok and converge_ok
    _line(8, "bipartite even/odd split on K(3,3)", ok,
          f"even target 1/3, odd target 0, bound {report.verdict}")
    assert ok


def test_criterion_09_k23_counterexample():
    g = GENERATORS["k23"]()
    values = [1.0 if 0 in g.edges()[e] else -1.0 for e in range(g.edge_count)]
    f = ScalarField(EDGES, values)
    report = analysis.deviation_series(g, f, set_kind="arc", radius=20, base=0)
    magnitude_ok = all(abs(a) == pytest.approx(1.0, abs=1e-12) for a in report.averages)
    fitted = analysis.fit_rate(report)
    ok = magnitude_ok and fitted is None and report.non_convergent
    _line(9, "sign field on K(2,3) never converges", ok,
          "|M_r| = 1 for r <= 20, fit non-convergent")
    assert ok


def test_criterion_10_spheres_tubes_horocycles():
    # spheres decompose into arcs, with the regular-size law
    sphere_ok = True
    for name in ("k4", "petersen"):
        g = GENERATORS[name]()
        f = random_field(g, VERTICES, 55)
        sphere_ok &= analysis.check_sphere_decomposition(g, 0, f, 12)
        q = graph_core.classify(g).q
        for r in range(1, 13):
            sphere_ok &= (sum(cover.arc_vertex_count(g, h, r) for h in g.out(0))
                          == (q + 1) * q ** (r - 1))
    assert sphere_ok
    # tube around two adjacent cover vertices obeys the same rate bound
    g = GENERATORS["petersen"]()
    decomp = spectral.eig_sym(spectral.vertex_laplacian(g))
    f = generic_field(g, VERTICES, 1, decomp)
    x = [cover.cover_root(g, 0), cover.cover_vertex(g, 0, [0])]
    report = analysis.deviation_series(g, f, set_kind="tube", radius=12, subtree=x)
    prediction = spectral.rate_prediction(g, 1, f)
    report.predicted_beta = prediction.beta_max
    report.predicted_kind = prediction.beta_max_kind
    _, tube_ok = analysis.bound_check(report)
    assert tube_ok
    # horocycle pieces are shifted arcs and their members sit on the level set
    geo = cover.GeodesicSpec(tuple(g.half_edge(i, (i + 1) % 5) for i in range(5)))
    horo_ok = True
    for r in range(11):
        subset = cover.horocycle_subset(g, geo, r)
        v_r = geo.vertex_at(g, r)
        v_r1 = geo.vertex_at(g, r + 1)
        arc = tree_arc(g, v_r1, v_r, r + 1)
        horo_ok &= subset == arc
        horo_ok &= all(
            busemann_value(g, geo, w, r) == 0
            and busemann_value(g, geo, w, r + 3) == 0
            for w in subset
        )
    ok = sphere_ok and tube_ok and horo_ok
    _line(10, "sphere decomposition, tube bound, horocycle identity", ok,
          "r <= 12 spheres, tube radius 12, horocycles r <= 10")
    assert ok


def test_criterion_11_negative_controls():
    # halving the predicted rate must break the calibrated bound
    g = GENERATORS["k4"]()
    f = cover.indicator_field(g, VERTICES, 0)
    report = analysis.deviation_series(g, f, set_kind="arc", radius=18, base=0)
    report.predicted_beta = 2 ** -0.5 / 2
    report.predicted_kind = spectral.EXACT_GEOMETRIC
    _, passed = analysis.bound_check(report)
    bound_control_ok = not passed
    # corrupting one twin pointer must make graph construction fail
    half_edges = [(0, 1, 1), (1, 0, 0), (1, 2, 3), (2, 1, 2), (2, 0, 5), (0, 2, 4)]
    graph_core.Graph(3, half_edges)  # sanity
    corrupted = [(0, 1, 1), (1, 0, 0), (1, 2, 5), (2, 1, 2), (2, 0, 3), (0, 2, 4)]
    twin_control_ok = False
    try:
        graph_core.Graph(3, corrupted)
    except TwinPairingError:
        twin_control_ok = True
    ok = bound_control_ok and twin_control_ok
    _line(11, "negative controls (halved rate, corrupted twin)", ok,
          "both rejected")
    assert ok
