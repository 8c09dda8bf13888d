import math

import numpy as np
import pytest

from covertree import analysis, cover, graph_core, spectral
from covertree.analysis import (
    ConvergenceReport,
    bound_check,
    check_bipartite_split,
    check_doob_condition,
    check_lemma_gap,
    check_ramanujan,
    check_sphere_decomposition,
    deviation_series,
    envelope_check,
    envelope_series,
    fit_rate,
)
from covertree.cli import generic_field, random_field
from covertree.cover import EDGES, VERTICES, ScalarField
from covertree.errors import (
    BudgetExceededError,
    ClassificationMismatchError,
    InsufficientDataError,
    SupportMismatchError,
)


def _synthetic_report(deviations):
    n = len(deviations) - 1
    return ConvergenceReport("arc", list(range(n + 1)), [1] * (n + 1),
                             list(deviations), [0.0] * (n + 1),
                             [abs(d) for d in deviations])


# --- deviation series ---

def test_constant_field_zero_deviations(k4):
    f = cover.constant_field(k4, VERTICES, 1.7)
    report = deviation_series(k4, f, set_kind="arc", radius=10, base=0)
    assert all(d == 0.0 for d in report.deviations)


def test_series_matches_brute_force_sets(petersen):
    f = random_field(petersen, VERTICES, 11)
    report = deviation_series(petersen, f, set_kind="sphere", radius=6, root=2)
    for r in range(7):
        sphere = cover.sphere_vertices(petersen, 2, r)
        assert report.sizes[r] == len(sphere)
        assert report.averages[r] == pytest.approx(cover.set_average(f, sphere), abs=1e-12)


def test_edge_sphere_series(k4):
    f = random_field(k4, EDGES, 4)
    report = deviation_series(k4, f, set_kind="edge-sphere", radius=5, root=0)
    for r in range(6):
        edge_sphere = cover.sphere_edges(k4, 0, r)
        assert report.sizes[r] == len(edge_sphere)
        assert report.averages[r] == pytest.approx(cover.set_average(f, edge_sphere), abs=1e-12)


def test_tube_series_matches_brute_force(petersen):
    f = random_field(petersen, VERTICES, 21)
    x = [cover.cover_root(petersen, 0), cover.cover_vertex(petersen, 0, [0])]
    report = deviation_series(petersen, f, set_kind="tube", radius=6, subtree=x)
    for r in range(7):
        tube = cover.tube_vertices(petersen, x, r)
        assert report.sizes[r] == len(tube)
        assert report.averages[r] == pytest.approx(cover.set_average(f, tube), abs=1e-12)


def test_edge_tube_series_matches_brute_force(petersen):
    f = random_field(petersen, EDGES, 22)
    x = [cover.cover_root(petersen, 0), cover.cover_vertex(petersen, 0, [0])]
    report = deviation_series(petersen, f, set_kind="tube", radius=5, subtree=x)
    for r in range(6):
        tube = cover.tube_edges(petersen, x, r)
        assert report.sizes[r] == len(tube)
        assert report.averages[r] == pytest.approx(cover.set_average(f, tube), abs=1e-12)


def test_horocycle_series_matches_brute_force(petersen):
    f = random_field(petersen, VERTICES, 23)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    report = deviation_series(petersen, f, set_kind="horocycle", radius=6, geodesic=geo)
    for r in range(7):
        subset = cover.horocycle_subset(petersen, geo, r)
        assert report.sizes[r] == len(subset)
        assert report.averages[r] == pytest.approx(cover.set_average(f, subset), abs=1e-12)


def test_k23_sign_field_never_converges(k23):
    values = [1.0 if 0 in k23.edge_endpoints(e) else -1.0 for e in range(k23.edge_count)]
    f = ScalarField(EDGES, values)
    assert cover.graph_average(f) == 0.0
    report = deviation_series(k23, f, set_kind="arc", radius=20, base=0)
    assert all(abs(a) == pytest.approx(1.0, abs=1e-12) for a in report.averages)
    assert fit_rate(report) is None
    assert report.non_convergent


def test_bipartite_parity_targets(k33):
    f = cover.indicator_field(k33, VERTICES, 0)
    base = k33.half_edge(0, 3)  # based in the part containing vertex 0
    report = deviation_series(k33, f, set_kind="arc", radius=8, base=base)
    for r in range(9):
        assert report.targets[r] == pytest.approx(1 / 3 if r % 2 == 0 else 0.0, abs=1e-15)
    # based in the other part the parity flips
    report_q = deviation_series(k33, f, set_kind="arc", radius=8, base=k33.half_edge(3, 0))
    assert report_q.targets[0] == pytest.approx(0.0, abs=1e-15)
    assert report_q.targets[1] == pytest.approx(1 / 3, abs=1e-15)


def test_eigenfield_deviations_equal_radial_profile(petersen):
    decomp = spectral.eig_sym(spectral.vertex_laplacian(petersen))
    for k, mu in enumerate(decomp.distinct):
        if abs(mu - 1.0) < 1e-9:
            continue
        f = ScalarField(VERTICES, decomp.group_basis(k)[:, 0])
        report = deviation_series(petersen, f, set_kind="arc", radius=12, base=0)
        predicted = spectral.radial_series(report.averages[0], report.averages[1],
                                           mu, spectral.RegularVertex(2), 12)
        for r in range(13):
            assert report.deviations[r] == pytest.approx(abs(predicted[r]), abs=1e-10)


def test_budget_cap(petersen):
    f = random_field(petersen, VERTICES, 1)
    with pytest.raises(BudgetExceededError):
        deviation_series(petersen, f, set_kind="arc", radius=12, base=0, budget=100)


def test_budget_env_override(petersen, monkeypatch):
    monkeypatch.setenv(analysis.BUDGET_ENV_VAR, "100")
    f = random_field(petersen, VERTICES, 1)
    with pytest.raises(BudgetExceededError):
        deviation_series(petersen, f, set_kind="arc", radius=12, base=0)


def test_series_rejects_support_mismatch(k4):
    f = cover.indicator_field(k4, EDGES, 0)
    with pytest.raises(SupportMismatchError):
        deviation_series(k4, f, set_kind="sphere", radius=4, root=0)


# --- fit_rate ---

def test_fit_exact_geometric_series():
    for beta in (0.3, 0.5, 2 ** -0.5, 0.9):
        report = _synthetic_report([beta ** r for r in range(16)])
        assert fit_rate(report) == pytest.approx(beta, abs=1e-6)


def test_fit_oscillating_eigenfield(k4):
    decomp = spectral.eig_sym(spectral.vertex_laplacian(k4))
    k_nontrivial = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 1 / 3) < 1e-9][0]
    f = ScalarField(VERTICES, decomp.group_basis(k_nontrivial)[:, 0])
    report = deviation_series(k4, f, set_kind="arc", radius=18, base=0)
    fitted = fit_rate(report)
    assert abs(fitted - 2 ** -0.5) <= 0.15 * 2 ** -0.5


def test_fit_insufficient_data():
    report = _synthetic_report([1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(InsufficientDataError):
        fit_rate(report)


def test_fit_all_zero_series():
    report = _synthetic_report([0.0] * 12)
    assert fit_rate(report) == 0.0
    assert not report.non_convergent


# --- bound_check ---

def test_bound_constant_field_trivial_pass(k4):
    f = cover.constant_field(k4, VERTICES, 2.0)
    report = deviation_series(k4, f, set_kind="arc", radius=10, base=0)
    report.predicted_beta = 2 ** -0.5
    report.predicted_kind = spectral.EXACT_GEOMETRIC
    c_hat, passed = bound_check(report)
    assert c_hat == 0.0 and passed


def test_bound_geometric_series_passes():
    report = _synthetic_report([0.9 * 0.5 ** r for r in range(14)])
    report.predicted_beta = 0.5
    report.predicted_kind = spectral.EXACT_GEOMETRIC
    c_hat, passed = bound_check(report)
    assert passed and c_hat == pytest.approx(0.9)


def test_bound_k4_indicator_full_pipeline(k4):
    # holds through radius 12; the oscillation phase first overshoots the
    # radius<=4-calibrated constant at radius 13 (see the acceptance notes)
    f = cover.indicator_field(k4, VERTICES, 0)
    report = deviation_series(k4, f, set_kind="arc", radius=12, base=0)
    pred = spectral.rate_prediction(k4, 1, f)
    report.predicted_beta = pred.beta_max
    report.predicted_kind = pred.beta_max_kind
    c_hat, passed = bound_check(report)
    assert passed
    assert c_hat == pytest.approx(0.75, abs=1e-12)  # deviation 3/4 at radius 0


def test_bound_negative_control_halved_beta():
    report = _synthetic_report([0.9 * 0.5 ** r for r in range(14)])
    report.predicted_beta = 0.25
    report.predicted_kind = spectral.EXACT_GEOMETRIC
    _, passed = bound_check(report)
    assert not passed
    assert report.verdict == "fail"


def test_bound_polynomial_factor_kind():
    series = [0.3 * (1 + r) * 0.5 ** r for r in range(14)]
    report = _synthetic_report(series)
    report.predicted_beta = 0.5
    report.predicted_kind = spectral.POLYNOMIAL_FACTOR
    c_hat, passed = bound_check(report)
    assert passed and c_hat == pytest.approx(0.3)
    # without the polynomial allowance the same series fails
    report2 = _synthetic_report(series)
    report2.predicted_beta = 0.5
    report2.predicted_kind = spectral.EXACT_GEOMETRIC
    assert not bound_check(report2)[1]


def test_bound_requires_prediction():
    report = _synthetic_report([0.5 ** r for r in range(8)])
    with pytest.raises(ValueError):
        bound_check(report)


# --- envelope ---

def test_envelope_dominates_and_is_tight(petersen):
    f = generic_field(petersen, VERTICES, 3,
                      spectral.eig_sym(spectral.vertex_laplacian(petersen)))
    report = deviation_series(petersen, f, set_kind="arc", radius=15, base=0)
    env = envelope_series(petersen, f, 0, 1, 15)
    assert envelope_check(report, env)
    # the envelope follows the true decay scale rather than a loose power
    assert env[15] <= 10 * (2 ** -0.5) ** 15 * env[0]


def test_envelope_semiregular(k34):
    decomp = spectral.eig_sym(spectral.edge_laplacian(k34))
    f = generic_field(k34, EDGES, 5, decomp)
    for base in (k34.half_edge(0, 3), k34.half_edge(3, 0)):
        report = deviation_series(k34, f, set_kind="arc", radius=13, base=base)
        env = envelope_series(k34, f, base, 3, 13, decomp=decomp)
        assert envelope_check(report, env)


def test_envelope_catches_corrupted_series(k4):
    f = generic_field(k4, VERTICES, 2, spectral.eig_sym(spectral.vertex_laplacian(k4)))
    report = deviation_series(k4, f, set_kind="arc", radius=10, base=0)
    env = envelope_series(k4, f, 0, 1, 10)
    report.deviations[7] = env[7] * 2 + 1.0
    assert not envelope_check(report, env)


def _reference_envelope(g, f, base, theorem, radius, decomp):
    """The envelope summed eigenspace by eigenspace, each from its own
    projection of ``f``."""
    cls = graph_core.classify(g)
    n = np.arange(radius + 1)
    env = np.zeros(radius + 1)
    for k, mu in enumerate(decomp.distinct):
        if abs(mu - 1.0) <= spectral.TRIVIAL_EIGENVALUE_TOL:
            continue
        comp = decomp.project(k, f.values)
        if f.support == VERTICES:
            f0, f1 = comp[g.tail(base)], comp[g.head(base)]
        else:
            sizes, sums = cover.arc_edge_sums(g, ScalarField(EDGES, comp), base, 1)
            f0, f1 = sums[0], sums[1] / sizes[1]
        if theorem == 3:
            env += analysis._double_step_envelope(
                f0, f1, mu, g.degree(g.tail(base)) - 1, g.degree(g.head(base)) - 1, n)
        else:
            roots_of = (spectral.characteristic_roots_regular_vertex if theorem == 1
                        else spectral.characteristic_roots_regular_edge)
            roots = [np.array([x], dtype=complex) for x in roots_of(mu, cls.q)]
            env += analysis._one_step_envelope(np.array([f0]), np.array([f1]), roots, n)
    return env


@pytest.mark.parametrize("name,theorem", [
    ("k4", 1), ("petersen", 1), ("cubic-60", 1), ("k4", 2), ("petersen", 2), ("k34", 3),
])
def test_envelope_equals_per_eigenspace_reference(name, theorem, request, seeded_cubic):
    g = seeded_cubic(60, 60) if name == "cubic-60" else request.getfixturevalue(name)
    lap, _ = spectral.theorem_laplacian(g, theorem)
    decomp = spectral.eig_sym(lap)
    f = random_field(g, lap.field_support(), 11)
    for base in (0, 1, g.half_edge_count // 2, g.half_edge_count - 1):
        env = envelope_series(g, f, base, theorem, 12, decomp=decomp)
        ref = _reference_envelope(g, f, base, theorem, 12, decomp)
        assert np.allclose(env, ref, rtol=1e-12, atol=0)
        assert np.allclose(env, envelope_series(g, f, base, theorem, 12), rtol=1e-12, atol=0)


def test_one_step_envelope_dominates_radial_series_in_both_root_cases():
    # one eigenspace at the repeated-root threshold, one with a complex pair
    q = 2
    mus = [2 * math.sqrt(q) / (q + 1), -1 / 3]
    f0, f1 = np.array([0.3, -0.7]), np.array([-0.2, 0.4])
    roots = np.array([spectral.characteristic_roots_regular_vertex(mu, q) for mu in mus],
                     dtype=complex).T
    n = np.arange(31)
    env = analysis._one_step_envelope(f0, f1, roots, n)
    series = [spectral.radial_series(a, b, mu, spectral.RegularVertex(q), 30)
              for mu, a, b in zip(mus, f0, f1)]
    assert np.all(np.abs(np.sum(series, axis=0)) <= env * (1 + 1e-12))
    alpha = q ** -0.5
    repeated = (0.3 + abs(-0.2 / alpha - 0.3) * n) * alpha ** n
    assert np.allclose(env - repeated,
                       analysis._one_step_envelope(f0[1:], f1[1:], roots[:, 1:], n),
                       rtol=1e-12, atol=0)


def test_envelope_with_decomp_keeps_the_regime_gate(k33, petersen):
    decomp = spectral.eig_sym(spectral.vertex_laplacian(k33))
    f = random_field(k33, VERTICES, 4)
    with pytest.raises(ClassificationMismatchError):
        envelope_series(k33, f, 0, 1, 6, decomp=decomp)
    decomp = spectral.eig_sym(spectral.vertex_laplacian(petersen))
    with pytest.raises(SupportMismatchError):
        envelope_series(petersen, random_field(petersen, EDGES, 4), 0, 1, 6, decomp=decomp)
    with pytest.raises(SupportMismatchError):
        envelope_series(petersen, random_field(petersen, EDGES, 4), 0, 2, 6, decomp=decomp)


# --- structural checks ---

def test_sphere_decomposition(k4, petersen):
    for g in (k4, petersen):
        f = random_field(g, VERTICES, 31)
        assert check_sphere_decomposition(g, 0, f, 8)


def test_lemma_gap(k34, k33):
    assert check_lemma_gap(k34)
    k35 = graph_core.generate("complete_bipartite", 3, 5)
    assert check_lemma_gap(k35)
    assert check_lemma_gap(k33)  # p == q: empty interval, vacuous


def test_bipartite_split_indicator(k33):
    f = cover.indicator_field(k33, VERTICES, 0)
    report, passed = check_bipartite_split(k33, f, k33.half_edge(0, 3), 16)
    assert passed
    assert report.targets[0] == pytest.approx(1 / 3)
    assert report.targets[1] == pytest.approx(0.0)


def test_bipartite_split_constant_field(k33):
    f = cover.constant_field(k33, VERTICES, 4.2)
    _, passed = check_bipartite_split(k33, f, 0, 12)
    assert passed


def test_bipartite_split_sign_flipped_constant(k33):
    # the eigenvector at -1 is constant on each part with opposite signs;
    # its even-radius arc averages equal the part average exactly
    decomp = spectral.eig_sym(spectral.vertex_laplacian(k33))
    k_neg = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 1) < 1e-9][0]
    vec = decomp.group_basis(k_neg)[:, 0]
    f = ScalarField(VERTICES, vec)
    report, passed = check_bipartite_split(k33, f, k33.half_edge(0, 3), 12)
    assert passed
    assert all(d <= 1e-12 for d in report.deviations)
    averages = report.averages
    assert all(averages[r] == pytest.approx(averages[0], abs=1e-12) for r in range(0, 12, 2))
    assert all(averages[r] == pytest.approx(-averages[0], abs=1e-12) for r in range(1, 12, 2))


def test_bipartite_eigenvector_sum_identities(k33):
    # the constant and the sign-flipped-constant eigenvectors have equal sums
    # over the degree-identical parts, and opposite sums across parts
    decomp = spectral.eig_sym(spectral.vertex_laplacian(k33))
    cls = graph_core.classify(k33)
    k_one = [k for k, mu in enumerate(decomp.distinct) if abs(mu - 1) < 1e-9][0]
    k_neg = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 1) < 1e-9][0]
    phi0 = decomp.group_basis(k_one)[:, 0]
    phi_n = decomp.group_basis(k_neg)[:, 0]
    if sum(phi_n[v] for v in cls.part_p) < 0:
        phi_n = -phi_n
    if sum(phi0[v] for v in cls.part_p) < 0:
        phi0 = -phi0
    sum_p0 = sum(phi0[v] for v in cls.part_p)
    sum_pn = sum(phi_n[v] for v in cls.part_p)
    sum_qn = sum(phi_n[v] for v in cls.part_q)
    assert sum_p0 == pytest.approx(sum_pn, abs=1e-9)
    assert sum_p0 == pytest.approx(-sum_qn, abs=1e-9)
    # other eigenvectors sum to zero over each part separately
    for k, mu in enumerate(decomp.distinct):
        if abs(abs(mu) - 1) < 1e-9:
            continue
        for col in range(decomp.multiplicity(k)):
            vec = decomp.group_basis(k)[:, col]
            assert abs(sum(vec[v] for v in cls.part_p)) <= 1e-9
            assert abs(sum(vec[v] for v in cls.part_q)) <= 1e-9


def test_bipartite_spectrum_symmetry(k33):
    # eigenvalues come in (mu, -mu) pairs with equal multiplicities, and the
    # sign flip on one part maps each eigenspace onto its mirror
    decomp = spectral.eig_sym(spectral.vertex_laplacian(k33))
    cls = graph_core.classify(k33)
    by_mu = {round(mu, 9): decomp.multiplicity(k) for k, mu in enumerate(decomp.distinct)}
    for mu, mult in by_mu.items():
        assert by_mu[round(-mu, 9)] == mult
    flip = np.array([1.0 if v in cls.part_p else -1.0 for v in range(6)])
    lap = spectral.vertex_laplacian(k33).matrix
    for k, mu in enumerate(decomp.distinct):
        for col in range(decomp.multiplicity(k)):
            flipped = decomp.group_basis(k)[:, col] * flip
            assert np.allclose(lap @ flipped, -mu * flipped, atol=1e-9)


def test_ramanujan(k4, petersen):
    assert check_ramanujan(petersen)
    assert check_ramanujan(k4)
    with pytest.raises(ClassificationMismatchError):
        check_ramanujan(graph_core.generate("cycle_with_chords", 12, 0, 6))


def test_doob_condition(k4, k34):
    assert check_doob_condition(k4, spectral.eig_sym(spectral.edge_laplacian(k4)))
    assert check_doob_condition(k34, spectral.eig_sym(spectral.edge_laplacian(k34)))


def test_doob_condition_vacuous(k4):
    # a decomposition without the extreme eigenvalue passes vacuously
    lap = spectral.edge_laplacian(k4)
    decomp = spectral.eig_sym(lap)
    keep = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 0.5) > 1e-9]
    slices = tuple(decomp.group_slices[k] for k in keep)
    truncated = spectral.SpectralDecomposition(
        decomp.kind, decomp.eigenvalues, decomp.basis, slices)
    assert check_doob_condition(k4, truncated)


def test_doob_alternating_pattern_explicit(k34):
    # at the extreme eigenvalue the per-step ratio alternates -1/q, -1/p
    decomp = spectral.eig_sym(spectral.edge_laplacian(k34))
    k_ext = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 0.4) < 1e-9][0]
    f = ScalarField(EDGES, decomp.group_basis(k_ext)[:, 0])
    base = k34.half_edge(3, 0)  # tail degree 3, head degree 4
    averages = [cover.set_average(f, layer)
                for layer in cover.arc_edge_layers(k34, base, 9)]
    q_far, p_base = 3, 2
    for n in range(9):
        ratio = -1 / q_far if n % 2 == 0 else -1 / p_base
        assert averages[n + 1] == pytest.approx(averages[n] * ratio, abs=1e-10)


# --- serialisation ---

def test_report_csv_and_json_roundtrip(k4):
    import json

    f = cover.indicator_field(k4, VERTICES, 0)
    report = deviation_series(k4, f, set_kind="arc", radius=8, base=0)
    report.predicted_beta = 2 ** -0.5
    report.predicted_kind = spectral.EXACT_GEOMETRIC
    bound_check(report)
    fit_rate(report)
    csv_text = analysis.report_to_csv(report)
    lines = csv_text.splitlines()
    assert lines[0] == "r,average,target,deviation,bound"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert float(first[1]) == report.averages[0]
    doc = json.loads(analysis.report_to_json(report))
    assert doc["averages"] == report.averages
    assert doc["verdict"] == report.verdict
    # byte-identical on identical inputs
    report2 = deviation_series(k4, f, set_kind="arc", radius=8, base=0)
    report2.predicted_beta = 2 ** -0.5
    report2.predicted_kind = spectral.EXACT_GEOMETRIC
    bound_check(report2)
    fit_rate(report2)
    assert analysis.report_to_json(report2) == analysis.report_to_json(report)
    assert analysis.report_to_csv(report2) == csv_text
