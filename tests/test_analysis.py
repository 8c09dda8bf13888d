import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from covertree.cli import VERIFY_BLOCK, generic_field, random_field
from covertree.cover import EDGES, VERTICES, ScalarField
from covertree.errors import (
    BudgetExceededError,
    ClassificationMismatchError,
    CoverError,
    InsufficientDataError,
    SupportMismatchError,
)
import reference_envelope


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


def test_tube_reads_the_projection_from_the_path(petersen):
    # CoverVertex equality ignores the cached ``vertex``; a wrong one must not leak
    wrong, right = [cover.CoverVertex(0, (), 7)], [cover.cover_root(petersen, 0)]
    for support in (VERTICES, EDGES):
        f = random_field(petersen, support, 24)
        assert (deviation_series(petersen, f, set_kind="tube", radius=8, subtree=wrong)
                == deviation_series(petersen, f, set_kind="tube", radius=8, subtree=right))
    f = random_field(petersen, VERTICES, 25)
    for r in range(6):
        layer, reference = (cover.tube_vertices(petersen, x, r) for x in (wrong, right))
        assert layer == reference
        assert [cv.vertex for cv in layer] == [cv.vertex for cv in reference]
        assert cover.set_average(f, layer) == cover.set_average(f, reference)


def test_set_family_reads_every_kind_as_a_union_of_arcs(petersen):
    out, root = tuple(petersen.out(0)), cover.cover_root(petersen, 0)
    star = [root] + cover.cover_children(petersen, root)
    geo = cover.GeodesicSpec(tuple(petersen.half_edge(i, (i + 1) % 5) for i in range(5)))
    behind = tuple((petersen.twin(h),) for h in geo.half_edges)
    # (support, pieces, shift, zero, what, empty); spheres and horocycles fix their support
    for kind, anchor, support, want in [
            ("arc", 3, EDGES, (EDGES, ((3,),), 0, None, "arc", "set")),
            ("sphere", 0, EDGES, (VERTICES, (out,), 0, (0,), "sphere", "set")),
            ("edge-sphere", 0, VERTICES, (EDGES, (out,), 0, None, "edge sphere", "set")),
            ("horocycle", geo, EDGES, (VERTICES, behind, 1, None, "horocycle", "horocycle"))]:
        family = analysis.set_family(petersen, kind, anchor, support)
        assert dataclasses.astuple(family) == (kind, *want)
    tube = analysis.set_family(petersen, "tube", star, EDGES)
    boundary = [h for cv in star[1:] for h in petersen.continuations(cv.path[-1])]
    assert sorted(tube.pieces[0]) == sorted(boundary)
    assert (tube.kind, tube.support, tube.shift, tube.what) == ("tube", EDGES, 0, "edge tube")
    assert sorted(tube.zero) == sorted(map(petersen.edge_of, boundary + list(out)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tube.shift = 1


def test_k23_sign_field_never_converges(k23):
    values = [1.0 if 0 in k23.edges()[e] else -1.0 for e in range(k23.edge_count)]
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


def test_bipartite_tube_targets_follow_the_parts_of_its_elements(k33):
    # the star tube of vertex 0 holds both parts at radius 0, but its six boundary
    # tails all lie in {3, 4, 5}, so from radius 1 on each radius lies in one part
    f = random_field(k33, VERTICES, 3)
    root = cover.cover_root(k33, 0)
    report = deviation_series(k33, f, set_kind="tube", radius=12,
                              subtree=[root] + cover.cover_children(k33, root))
    cls = graph_core.classify(k33)
    own, other = (cls.part_p, cls.part_q) if 0 in cls.part_p else (cls.part_q, cls.part_p)
    assert report.targets[0] == cover.graph_average(f)
    assert report.targets[1:] == [cover.part_average(f, own if r % 2 else other)
                                  for r in range(1, 13)]
    assert report.deviations[12] < analysis.DEVIATION_FLOOR


def test_eigenfield_deviations_equal_radial_profile(petersen):
    decomp = spectral.eig_sym(spectral.vertex_laplacian(petersen))
    for k, mu in enumerate(decomp.distinct):
        if abs(mu - 1.0) < 1e-9:
            continue
        f = ScalarField(VERTICES, decomp.group_basis(k)[:, 0])
        report = deviation_series(petersen, f, set_kind="arc", radius=12, base=0)
        predicted = spectral.radial_series(report.averages[0], report.averages[1],
                                           mu, spectral.regime(petersen, 1), 12)
        for r in range(13):
            assert report.deviations[r] == pytest.approx(abs(predicted[r]), abs=1e-10)


def test_budget_cap(petersen):
    # the cap bounds the radius: 12 runs at cap 12, with 1024 elements at radius 12
    f = random_field(petersen, VERTICES, 1)
    assert deviation_series(petersen, f, set_kind="arc", radius=12, base=0,
                            budget=12).sizes[-1] == 2 ** 11
    with pytest.raises(BudgetExceededError, match="^arc radius 12 is over the cap 11$"):
        deviation_series(petersen, f, set_kind="arc", radius=12, base=0, budget=11)


def test_budget_env_override(petersen, monkeypatch):
    f = random_field(petersen, VERTICES, 1)
    monkeypatch.setenv(analysis.BUDGET_ENV_VAR, "11")
    with pytest.raises(BudgetExceededError, match="^arc radius 12 is over the cap 11$"):
        deviation_series(petersen, f, set_kind="arc", radius=12, base=0)
    # an explicit budget wins over the environment
    assert len(deviation_series(petersen, f, set_kind="arc", radius=12, base=0,
                                budget=12).sizes) == 13


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


def _eigenspace_envelope(g, comp, mu, base, theorem, radius):
    """Closed-form envelope of ``comp``, a field in the eigenspace of ``mu``,
    from its two initial values at ``base``."""
    if theorem == 1:
        f0, f1 = comp[g.tail(base)], comp[g.head(base)]
    else:
        sizes, sums = cover.arc_edge_sums(g, ScalarField(EDGES, comp), base, 1)
        f0, f1 = sums[0], sums[1] / sizes[1]
    return analysis._profile_envelope(np.array([[f0]]), np.array([[f1]]), np.array([mu]),
                                      spectral.regime(g, theorem, base), radius)[0]


def _reference_envelope(g, f, base, theorem, radius, decomp):
    """The envelope summed eigenspace by eigenspace, each from its own
    projection of ``f``."""
    env = np.zeros(radius + 1)
    for k, mu in enumerate(decomp.distinct):
        if abs(mu - 1.0) > spectral.TRIVIAL_EIGENVALUE_TOL:
            b = decomp.group_basis(k)
            env += _eigenspace_envelope(g, b @ (b.T @ f.values), mu, base, theorem, radius)
    return env


def _own_reference_envelope(g, vec, k, base, theorem, radius, decomp):
    """The envelope of eigenvector ``vec`` of eigenspace ``k``: that of its own
    projection plus twice the largest entry of the remainder."""
    b = decomp.group_basis(k)
    comp = b @ (b.T @ vec)
    return (_eigenspace_envelope(g, comp, decomp.distinct[k], base, theorem, radius)
            + 2 * np.abs(vec - comp).max())


def _eigenvector_columns(decomp):
    """Every nontrivial eigenvector column, with its eigenspace."""
    return [(i, k) for k, ((a, b), mu) in enumerate(zip(decomp.group_slices, decomp.distinct))
            if abs(mu - 1.0) > spectral.TRIVIAL_EIGENVALUE_TOL for i in range(a, b)]


@pytest.mark.parametrize("name,theorem", [
    ("k4", 1), ("petersen", 1), ("cubic-60", 1), ("k4", 2), ("petersen", 2), ("k34", 3),
])
def test_envelope_equals_per_eigenspace_reference(name, theorem, request, seeded_cubic):
    g = seeded_cubic(60, 60) if name == "cubic-60" else request.getfixturevalue(name)
    lap, _ = spectral.theorem_laplacian(g, theorem)
    decomp = spectral.eig_sym(lap)
    f = random_field(g, lap.support, 11)
    for base in (0, 1, g.half_edge_count // 2, g.half_edge_count - 1):
        env = envelope_series(g, f, base, theorem, 12, decomp=decomp)
        ref = _reference_envelope(g, f, base, theorem, 12, decomp)
        assert np.allclose(env, ref, rtol=1e-12, atol=0)
        assert np.allclose(env, envelope_series(g, f, base, theorem, 12), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name,theorem", [
    ("petersen", 1), ("petersen", 2), ("k33", 2), ("k34", 3), ("cubic-60", 1), ("cubic-60", 2),
])
def test_batched_columns_equal_the_per_column_series(name, theorem, request, seeded_cubic):
    # every nontrivial eigenvector column, in verify's blocks; cubic-60 has 59
    # vertex and 89 edge columns, neither a multiple of the block size
    g = seeded_cubic(60, 60) if name == "cubic-60" else request.getfixturevalue(name)
    lap, reg = spectral.theorem_laplacian(g, theorem)
    decomp = spectral.eig_sym(lap)
    columns = _eigenvector_columns(decomp)
    op = cover.transfer_operator(g)
    at = decomp.basis[:, [i for i, _ in columns]][op.heads if reg.support == VERTICES else op.edges]
    for base in (0, 1, g.half_edge_count // 2, g.half_edge_count - 1):
        batched = op.averages(at, base, 12)
        assert all(np.array_equal(batched[:, j], op.averages(at[:, j], base, 12))
                   for j in range(len(columns)))
        for start in range(0, len(columns), VERIFY_BLOCK):
            block = columns[start:start + VERIFY_BLOCK]
            ids = np.array([i for i, _ in block])
            averages, deviations = analysis.arc_deviations(
                g, decomp.basis[:, ids], reg.support, base, 12)
            env = envelope_series(g, ids, base, theorem, 12, decomp=decomp)
            assert averages.shape == deviations.shape == env.T.shape == (13, len(block))
            for j, (i, k) in enumerate(block):
                report = deviation_series(g, ScalarField(reg.support, decomp.basis[:, i]),
                                          set_kind="arc", radius=12, base=base)
                assert averages[:, j].tolist() == report.averages
                assert deviations[:, j].tolist() == report.deviations
                # unit eigenvectors project with absolute rounding near 1e-16; where an
                # envelope is that small no two summation orders agree relatively
                ref = _own_reference_envelope(g, decomp.basis[:, i], k, base, theorem, 12, decomp)
                assert np.allclose(env[j], ref, rtol=1e-12, atol=1e-15)


# The own-eigenspace envelope of a unit eigenvector differs from the full
# projection's by rounding: the full one sums n - 1 cross terms of a few ulps
# each, the own one adds 2 max|g| for a remainder g of a few ulps.  The cases
# below differ by up to 2.7e-15 (Petersen, theorem 2); seeded cubic graphs at
# base 0 by 3.1e-15 at 240 vertices, 4.3e-15 at 1000 and 4.7e-15 at 2000.
OWN_ENVELOPE_ROUNDING = 1e-14


@pytest.mark.parametrize("name,theorem", [
    ("k4", 1), ("petersen", 1), ("cubic-60", 1), ("k4", 2), ("petersen", 2), ("cubic-60", 2),
    ("k33", 2), ("k34", 3),
])
def test_own_eigenspace_envelope_dominates_and_matches_the_full_projection(
        name, theorem, request, seeded_cubic):
    g = seeded_cubic(60, 60) if name == "cubic-60" else request.getfixturevalue(name)
    lap, reg = spectral.theorem_laplacian(g, theorem)
    decomp = spectral.eig_sym(lap)
    ids = np.array([i for i, _ in _eigenvector_columns(decomp)])
    for base in (0, 1, g.half_edge_count // 2, g.half_edge_count - 1):
        for start in range(0, len(ids), VERIFY_BLOCK):
            block = ids[start:start + VERIFY_BLOCK]
            env = envelope_series(g, block, base, theorem, 12, decomp=decomp)
            _, deviations = analysis.arc_deviations(g, decomp.basis[:, block], reg.support,
                                                    base, 12)
            assert not analysis.violations(deviations, env.T).any()
            full = [envelope_series(g, ScalarField(reg.support, decomp.basis[:, i]), base,
                                    theorem, 12, decomp=decomp) for i in block]
            assert np.abs(env - full).max() <= OWN_ENVELOPE_ROUNDING
        # the blocks only bound the work: all columns at once give the same bounds
        whole = envelope_series(g, ids, base, theorem, 12, decomp=decomp)
        assert np.abs(whole - np.vstack([envelope_series(
            g, ids[s:s + VERIFY_BLOCK], base, theorem, 12, decomp=decomp)
            for s in range(0, len(ids), VERIFY_BLOCK)])).max() <= 1e-15


def test_own_eigenspace_envelope_bounds_any_remainder(petersen):
    # 2 max|g| bounds the remainder's deviation for any g, not only a rounding-sized
    # one: halved eigenvectors are still eigenvectors, but b = B_K c + g with
    # B_K c = b / 4 and g = 3 b / 4, so without that term the bound fails at r = 0
    decomp = spectral.eig_sym(spectral.vertex_laplacian(petersen))
    basis = decomp.basis.copy()
    basis[:, :3] *= 0.5  # three of the four columns at mu = -2/3
    bent = spectral.SpectralDecomposition(VERTICES, decomp.eigenvalues, basis, decomp.group_slices)
    for base in range(petersen.half_edge_count):
        env = envelope_series(petersen, np.arange(3), base, 1, 12, decomp=bent)
        _, deviations = analysis.arc_deviations(petersen, basis[:, :3], VERTICES, base, 12)
        assert not analysis.violations(deviations, env.T).any()


def test_one_step_envelope_dominates_radial_series_in_both_root_cases(k4):
    # one eigenspace at the repeated-root threshold, one with a complex pair
    q, reg = 2, spectral.regime(k4, 1)
    mus = np.array([2 * math.sqrt(q) / (q + 1), -1 / 3])
    f0, f1 = np.array([[0.3], [-0.7]]), np.array([[-0.2], [0.4]])
    n = np.arange(31)
    env = analysis._profile_envelope(f0, f1, mus, reg, 30)[0]
    series = [spectral.radial_series(a, b, mu, reg, 30)
              for mu, a, b in zip(mus, f0[:, 0], f1[:, 0])]
    assert np.all(np.abs(np.sum(series, axis=0)) <= env * (1 + 1e-12))
    # the repeated root alpha, by parity: (|f0| + 2k |f1/alpha - f0|) |alpha|**2k at
    # radius 2k and (|f1| + 2k |alpha| |f1/alpha - f0|) |alpha|**2k at radius 2k + 1
    alpha, k = q ** -0.5, n // 2
    slope = abs(-0.2 / alpha - 0.3)
    repeated = np.where(n % 2, 0.2 + 2 * k * alpha * slope, 0.3 + 2 * k * slope) * alpha ** (2 * k)
    assert np.allclose(env - repeated,
                       analysis._profile_envelope(f0[1:], f1[1:], mus[1:], reg, 30)[0],
                       rtol=1e-12, atol=0)
    # no larger than the one-step form (|f0| + n |f1/alpha - f0|) |alpha|**n, and
    # equal to it at even radii
    one_step = (0.3 + n * slope) * alpha ** n
    assert np.all(repeated <= one_step * (1 + 1e-12))
    assert np.allclose(repeated[::2], one_step[::2], rtol=1e-12, atol=0)


def _special_mus(reg):
    """The eigenvalues where the double step has a repeated root or the vanishing-star
    root of modulus one; for p == q the middle two discriminant roots are (q-1)/(2q)."""
    if reg.support == VERTICES:
        r = 2 * math.sqrt(reg.q) / (reg.q + 1)
        return [0.0, r, -r]
    return [-2 / (reg.p + reg.q), *spectral.discriminant_roots(reg.p, reg.q)]


def _scalar_mu(reg):
    """The eigenvalue where both halves of the step vanish, so T is scalar, or None."""
    if reg.support == VERTICES:
        return 0.0
    return (reg.q - 1) / (2 * reg.q) if reg.p == reg.q else None


# initial values 0 or of size at least 1e-100: a relative bound needs normal floats
_INITIAL_VALUE = st.floats(-1, 1).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)


# mu is a float, or an int indexing the regime's special eigenvalues
@given(st.integers(0, 5), st.one_of(st.floats(-1.0, 1.0), st.integers(0, 4)),
       _INITIAL_VALUE, _INITIAL_VALUE)
# the smallest normal mu: the profile's even radii are subnormal, and at radius 42 both
# its float and its exact value passed the envelope before it was rounded outward
@example(0, 2.2250738585072014e-308, 0.0, 0.5510748779973729)
@example(2, 2.2250738585072014e-308, 0.0, 0.5510748779973729)
@settings(max_examples=200, deadline=None)
def test_envelope_closed_form_dominates_the_radial_series(k4, petersen, k34, which, mu, f0, f1):
    # independent of the library's envelope: the recursion itself, to radius 60
    regimes = [spectral.regime(k4, 1), spectral.regime(k4, 2), spectral.regime(petersen, 1),
               spectral.regime(petersen, 2), spectral.regime(k34, 3, k34.half_edge(0, 3)),
               spectral.regime(k34, 3, k34.half_edge(3, 0))]
    reg = regimes[which]
    lo = -1.0 if reg.support == VERTICES else -2 / (reg.p + reg.q)
    special = _special_mus(reg)
    mu = special[mu % len(special)] if isinstance(mu, int) else mu
    assume(mu >= lo)
    env = analysis._profile_envelope(np.array([[f0]]), np.array([[f1]]), np.array([mu]), reg, 60)
    series = np.abs(spectral.radial_series(f0, f1, mu, reg, 60))
    assert np.all(series <= env[0] * (1 + 1e-12))
    if mu == _scalar_mu(reg):  # each parity is geometric: the envelope is |F(n)|
        assert np.allclose(env[0], series, rtol=1e-12, atol=0)


def test_envelope_at_repeated_roots_is_no_larger_than_the_previous_forms(k4, petersen, k34):
    # at a repeated double-step root the previous envelopes were the one-step form
    # for p == q and a norm bound on the nilpotent part for p != q
    n = np.arange(41)
    values = np.linspace(-1, 1, 9)
    for reg in (spectral.regime(k4, 1), spectral.regime(petersen, 2),
                spectral.regime(k34, 3, k34.half_edge(0, 3)),
                spectral.regime(k34, 3, k34.half_edge(3, 0))):
        d = reg.roots(*reg.coefficients(np.array(_special_mus(reg))))[2]
        mus = [mu for mu, dj in zip(_special_mus(reg), d) if abs(dj) <= spectral.DISCRIMINANT_TOL]
        assert len(mus) >= 2
        for mu in mus:
            f0, f1 = np.meshgrid(values, values)
            env = analysis._profile_envelope(np.array([f0.ravel()]), np.array([f1.ravel()]),
                                             np.array([mu]), reg, 40)
            for j, (a, b) in enumerate(zip(f0.ravel(), f1.ravel())):
                old = (reference_envelope.one_step_envelope(a, b, mu, reg.support, reg.q, n)
                       if reg.p == reg.q else
                       reference_envelope.double_step_envelope(a, b, mu, reg.p, reg.q, n))
                assert np.all(env[j] <= old * (1 + 1e-12))
                assert np.all(np.abs(spectral.radial_series(a, b, mu, reg, 40))
                              <= env[j] * (1 + 1e-12))


# At radii up to 12 the double-step envelope equals the previous closed forms to
# rounding: with three fields and four bases the largest relative change is
# 7.0e-14 on K(3,5), 3.6e-14 on K(3,4), 2.4e-14 and 1.3e-14 for theorem 2 on K4
# and Petersen, and below 2e-15 for the rest.  Where T is scalar (K(3,3),
# theorem 2, mu = 1/4) it is the exact |F(n)|.
PREVIOUS_ENVELOPE_RTOL = 1e-13


@pytest.mark.parametrize("name,theorem", [
    ("k4", 1), ("petersen", 1), ("cubic-60", 1), ("k4", 2), ("petersen", 2), ("cubic-60", 2),
    ("k33", 2), ("k34", 3), ("k35", 3),
])
def test_envelope_matches_the_previous_closed_forms(name, theorem, request, seeded_cubic):
    if name == "k35":
        g = graph_core.generate("complete_bipartite", 3, 5)
    else:
        g = seeded_cubic(60, 60) if name == "cubic-60" else request.getfixturevalue(name)
    lap, _ = spectral.theorem_laplacian(g, theorem)
    decomp = spectral.eig_sym(lap)
    for base in (0, 1, g.half_edge_count // 2, g.half_edge_count - 1):
        reg = spectral.regime(g, theorem, base)
        d = reg.roots(*reg.coefficients(np.array(decomp.distinct)))[2]
        repeated = (np.abs(d) <= spectral.DISCRIMINANT_TOL).any()
        for seed in (11, 12, 13):
            f = random_field(g, lap.support, seed)
            env = np.array(envelope_series(g, f, base, theorem, 12, decomp=decomp))
            old = reference_envelope.reference_envelope(g, f, base, theorem, 12, decomp)
            if repeated:
                assert np.all(env <= old * (1 + 1e-12))
            else:
                assert np.allclose(env, old, rtol=PREVIOUS_ENVELOPE_RTOL, atol=0)
            report = deviation_series(g, f, set_kind="arc", radius=12, base=base)
            assert envelope_check(report, env.tolist())
    assert (name == "k33") == repeated


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


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],  # pendant path
                                   [(0, 1), (0, 2), (0, 3)]])                  # star K(1,3)
def test_sphere_decomposition_off_constant_degree(edges):
    # arcs of unequal sizes weigh by their sizes; empty arcs and spheres hold rows only
    g = graph_core.build_graph(max(map(max, edges)) + 1, edges)
    f = random_field(g, VERTICES, 32)
    assert all(check_sphere_decomposition(g, v, f, 8) for v in range(g.vertex_count))


@pytest.mark.parametrize("bad", [-1, 10])
def test_anchors_out_of_range_raise_cover_error(petersen, bad):
    # -1 would read as base 29 or vertex 9, 10 and 30 would raise a bare IndexError
    fv = random_field(petersen, VERTICES, 33)
    fe = random_field(petersen, EDGES, 34)
    base = 30 if bad > 0 else bad
    with pytest.raises(CoverError, match=rf"^half-edge {base} out of range 0 \.\. 29$"):
        deviation_series(petersen, fv, set_kind="arc", radius=4, base=base)
    for kind, f in (("sphere", fv), ("edge-sphere", fe)):
        with pytest.raises(CoverError, match=rf"^root vertex {bad} out of range 0 \.\. 9$"):
            deviation_series(petersen, f, set_kind=kind, radius=4, root=bad)
    with pytest.raises(CoverError, match=rf"^root vertex {bad} out of range 0 \.\. 9$"):
        check_sphere_decomposition(petersen, bad, fv, 3)
    with pytest.raises(ValueError, match="^radius must be >= 0$"):
        check_sphere_decomposition(petersen, 0, fv, -1)


@pytest.mark.parametrize("fault", ["drop", "duplicate", "outside"])
def test_sphere_decomposition_rejects_a_faulty_sphere(petersen, monkeypatch, fault):
    f = cover.constant_field(petersen, VERTICES, 1.0)  # equal averages: only the rows can differ
    assert check_sphere_decomposition(petersen, 0, f, 4)
    sphere_vertex_layers = cover.sphere_vertex_layers

    def faulty(g, v0, max_radius):
        for r, sphere in enumerate(sphere_vertex_layers(g, v0, max_radius)):
            rows = np.concatenate(sphere.blocks)
            if r == 3:
                if fault == "drop":
                    rows = rows[1:]
                elif fault == "duplicate":
                    rows = np.vstack([rows[:1], rows[:-1]])
                else:  # a row of the sphere around another vertex
                    other = list(sphere_vertex_layers(g, 1, r))[r]
                    rows = np.vstack([rows[:-1], other.blocks[0][:1]])
            yield cover.PathLayer(g, v0, [rows], VERTICES)

    monkeypatch.setattr(cover, "sphere_vertex_layers", faulty)
    assert not check_sphere_decomposition(petersen, 0, f, 4)


def test_sphere_decomposition_rejects_overlapping_arcs(petersen, monkeypatch):
    # the sphere is built from the same faulty arcs, so only disjointness can fail
    f = cover.constant_field(petersen, VERTICES, 1.0)
    arc_vertex_layers = cover.arc_vertex_layers
    first, second = petersen.out(0)[:2]

    def overlapping(g, base, max_radius):
        pairs = zip(arc_vertex_layers(g, base, max_radius), arc_vertex_layers(g, first, max_radius))
        for r, (layer, other) in enumerate(pairs):
            if base == second and r == 3:  # a row of the first arc stands in for one of its own
                rows = np.vstack([other.blocks[0][:1], layer.blocks[0][1:]])
                layer = cover.PathLayer(g, layer.root, [rows], VERTICES)
            yield layer

    def spheres(g, v0, max_radius):
        for layers in zip(*[overlapping(g, h, max_radius) for h in g.out(v0)]):
            yield cover.PathLayer(g, v0, [part for layer in layers for part in layer.parts],
                                  VERTICES)

    monkeypatch.setattr(cover, "arc_vertex_layers", overlapping)
    monkeypatch.setattr(cover, "sphere_vertex_layers", spheres)
    assert not check_sphere_decomposition(petersen, 0, f, 4)


# 180 half-edges take 8 bits each, so a key holds 7 ids: rows of 7, 8 and 15
# half-edges take 1, 2 and 3 keys
@pytest.mark.parametrize("radius", [7, 8, 15])
def test_sphere_decomposition_over_one_two_and_three_keys(seeded_cubic, radius):
    g = seeded_cubic(60, 60)
    assert g.half_edge_count == 180
    assert check_sphere_decomposition(g, 0, random_field(g, VERTICES, 35), radius)


@pytest.mark.parametrize("fault", ["drop", "duplicate", "outside", "overlap"])
def test_sphere_decomposition_rejects_a_fault_in_the_second_key(seeded_cubic, monkeypatch, fault):
    # radius-9 rows take two keys, and rows 0 and 1 of a cubic arc share their
    # first 8 half-edges: each fault changes a row in column 7 or 8 only
    g = seeded_cubic(60, 60)
    f = cover.constant_field(g, VERTICES, 1.0)  # equal averages: only the rows can differ
    assert check_sphere_decomposition(g, 0, f, 9)
    arc_vertex_layers, sphere_vertex_layers = cover.arc_vertex_layers, cover.sphere_vertex_layers

    def faulty(rows):
        if fault == "drop":
            return rows[1:]
        if fault in ("duplicate", "overlap"):  # row 0 stands in for row 1
            return np.vstack([rows[:1], rows[:1], rows[2:]])
        rows = rows.copy()
        rows[0, 8] = g.twin(rows[0, 7])  # a backtracking path: in no sphere
        return rows

    def arcs(g, base, max_radius):
        for r, layer in enumerate(arc_vertex_layers(g, base, max_radius)):
            if fault == "overlap" and base == g.out(0)[1] and r == 9:
                layer = cover.PathLayer(g, layer.root, [faulty(layer.blocks[0])], VERTICES)
            yield layer

    def spheres(g, v0, max_radius):
        if fault == "overlap":  # the sphere is built from the same faulty arcs
            for layers in zip(*[arcs(g, h, max_radius) for h in g.out(v0)]):
                yield cover.PathLayer(g, v0, [part for layer in layers for part in layer.parts],
                                      VERTICES)
            return
        for r, sphere in enumerate(sphere_vertex_layers(g, v0, max_radius)):
            rows = np.concatenate(sphere.blocks)
            yield cover.PathLayer(g, v0, [faulty(rows) if r == 9 else rows], VERTICES)

    monkeypatch.setattr(cover, "arc_vertex_layers", arcs)
    monkeypatch.setattr(cover, "sphere_vertex_layers", spheres)
    assert not check_sphere_decomposition(g, 0, f, 9)


WIDTHS = sorted({2, 3} | {(1 << b) + d for b in range(2, 32) for d in (-1, 0, 1)})


@pytest.mark.parametrize("width", WIDTHS)
def test_sorted_keys_order_rows_lexicographically(width):
    # decoding the sorted keys gives back the lexsorted rows: the keys sort as the
    # rows do and are equal only for equal rows
    rng = np.random.default_rng(width % 1000)
    bits = (width - 1).bit_length()
    k = 62 // bits
    ends = np.unique([0, 1, width // 2, width - 2, width - 1])
    for depth in range(1, 41):
        base = rng.integers(0, width, size=depth)
        edits = np.repeat(base[None], 60, axis=0)  # rows one id apart, some equal
        edits[np.arange(60), rng.integers(0, depth, size=60)] = rng.choice(ends, size=60)
        rows = np.vstack([edits, rng.choice(ends, size=(60, depth)),
                          rng.integers(0, width, size=(30, depth))])
        keys = analysis._sorted_keys([rows[:50], rows[50:]], depth, width)
        assert keys.dtype == np.int64 and keys.shape == (len(rows), -(-depth // k))
        assert 0 <= keys.min() and keys.max() < 1 << 62
        digits = keys[..., None] >> bits * np.arange(k - 1, -1, -1) & (1 << bits) - 1
        tail = depth % k or k  # the last key holds the last ``tail`` ids only
        decoded = np.hstack([digits[:, :-1].reshape(len(rows), -1), digits[:, -1, k - tail:]])
        assert np.array_equal(decoded, rows[np.lexsort(rows.T[::-1])])


def _assert_folds_match_rows(layers, width, memo):
    # each block's folded keys, read through the memo, equal the chunked Horner
    # keys of its materialised rows; the memo keeps one entry per block, its newest
    bits = (width - 1).bit_length()
    for layer in layers:
        parts = [part for part in layer.parts if part[1]]
        for part, rows in zip(layer.parts, layer.blocks):
            assert np.array_equal(analysis._fold(part, bits, memo),
                                  analysis._fold((rows, ()), bits, {}))
        assert len(memo) == len(parts)
        assert all(memo[id(levels[-1])][0] is levels[-1] for _, levels in parts)


@pytest.mark.parametrize("name, radius, roots", [("cubic-60", 16, [0]), ("k34", 9, range(7)),
                                                 ("loops", 12, range(3))])
def test_folded_keys_equal_the_keys_of_the_rows(name, radius, roots, request, seeded_cubic):
    # cubic-60: 8-bit ids, 7 a key, so radius 16 crosses keys at depths 7/8 and
    # 14/15; the loops-and-multi-edges graph has parents of mixed fan-out
    g = {"cubic-60": lambda: seeded_cubic(60, 60), "k34": lambda: request.getfixturevalue("k34"),
         "loops": lambda: graph_core.build_graph(3, [(0, 0), (0, 1), (0, 1), (1, 2), (2, 2)],
                                                 allows_loops=True, allows_multi=True)}[name]()
    parents = set()
    for v in roots:
        spheres = list(cover.sphere_vertex_layers(g, v, radius))[1:]
        _assert_folds_match_rows(spheres, g.half_edge_count, {})
        for h in g.out(v):
            arcs = list(cover.arc_vertex_layers(g, h, radius))[1:]
            _assert_folds_match_rows(arcs, g.half_edge_count, {})
            parents |= {type(p) for _, levels in arcs[-1].parts for p, _ in levels}
    assert parents == ({int, np.ndarray} if name == "loops" else {int})


def test_folded_keys_hold_one_id_a_key_at_width_2_31_plus_1():
    # 32-bit ids: every level starts a new key column
    width, rng = (1 << 31) + 1, np.random.default_rng(37)
    prefix = np.array([[0, width - 1], [width - 1, 1 << 31], [5, 0]], dtype=np.intp)
    levels = ()
    for c in (2, None, 3, 1, None):
        n = len(levels[-1][1]) if levels else len(prefix)
        parent = c or np.sort(rng.integers(0, n, size=n + 2))
        size = n * c if c else n + 2
        levels += ((parent, rng.choice([0, 1, width - 2, width - 1, 1 << 30], size=size)),)
        layer = cover.PathLayer(None, 0, [(prefix, levels)], VERTICES)
        memo = {}
        if len(levels) > 1:  # the keys an earlier radius leaves behind
            analysis._fold((prefix, levels[:-1]), 32, memo)
        _assert_folds_match_rows([layer], width, memo)
        assert analysis._fold((prefix, levels), 32, {}).shape == (size, 2 + len(levels))


@pytest.mark.parametrize("name, radius", [("petersen", 11), ("cubic-60", 9)])
def test_sphere_decomposition_builds_no_rows(name, radius, request, seeded_cubic, monkeypatch):
    g = seeded_cubic(60, 60) if name == "cubic-60" else request.getfixturevalue(name)

    def refuse(block):
        raise AssertionError("the rows were built")

    monkeypatch.setattr(cover, "_materialise", refuse)
    assert check_sphere_decomposition(g, 0, random_field(g, VERTICES, 38), radius)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e10, 1e300])
@pytest.mark.parametrize("name", ["petersen", "k34"])
def test_sphere_average_bound_scales_with_the_field(name, scale, request, monkeypatch):
    # the averages agree to 1e-12 max|f| at every scale; moving the sphere's
    # average by 1e-9 max|f| fails the check
    g = request.getfixturevalue(name)
    f = ScalarField(VERTICES, random_field(g, VERTICES, 39).values * scale)
    assert check_sphere_decomposition(g, 0, f, 8)
    sphere_vertex_layers, set_average, spheres = cover.sphere_vertex_layers, cover.set_average, []

    def recorded(*args):
        for layer in sphere_vertex_layers(*args):
            spheres.append(layer)
            yield layer

    def moved(f, layer):
        shift = 1e-9 * np.abs(f.values).max() if any(layer is s for s in spheres) else 0.0
        return set_average(f, layer) + shift

    monkeypatch.setattr(cover, "sphere_vertex_layers", recorded)
    monkeypatch.setattr(cover, "set_average", moved)
    assert not check_sphere_decomposition(g, 0, f, 8)


def test_sphere_decomposition_of_a_zero_field_must_match_exactly(petersen, monkeypatch):
    f = cover.constant_field(petersen, VERTICES, 0.0)
    assert check_sphere_decomposition(petersen, 0, f, 6)
    set_average = cover.set_average
    monkeypatch.setattr(cover, "set_average",
                        lambda f, layer: set_average(f, layer) + (len(layer.parts) > 1) * 5e-324)
    assert not check_sphere_decomposition(petersen, 0, f, 6)


def test_sphere_decomposition_budget_is_checked_before_enumerating(petersen, monkeypatch):
    sphere_vertex_layers, arc_vertex_layers = cover.sphere_vertex_layers, cover.arc_vertex_layers

    def enumerate_(*args):
        raise AssertionError("enumerated")

    monkeypatch.delenv(analysis.BUDGET_ENV_VAR, raising=False)
    monkeypatch.setattr(cover, "sphere_vertex_layers", enumerate_)
    monkeypatch.setattr(cover, "arc_vertex_layers", enumerate_)
    f = random_field(petersen, VERTICES, 36)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"^sphere at radius 23 has 12582912 elements"):
        check_sphere_decomposition(petersen, 0, f, 30)
    assert time.perf_counter() - start < 1.0
    monkeypatch.setenv(analysis.BUDGET_ENV_VAR, "100")
    with pytest.raises(BudgetExceededError, match=r"^sphere at radius 7 has 192 elements \(cap"):
        check_sphere_decomposition(petersen, 0, f, 7)
    edgeless = graph_core.build_graph(1, [])  # no half-edges: every sphere from radius 1 is empty
    f0 = cover.constant_field(edgeless, VERTICES, 1.0)
    with pytest.raises(BudgetExceededError, match=r"^sphere radius 101 is over the cap 100$"):
        check_sphere_decomposition(edgeless, 0, f0, 101)
    monkeypatch.setattr(cover, "sphere_vertex_layers", sphere_vertex_layers)
    monkeypatch.setattr(cover, "arc_vertex_layers", arc_vertex_layers)
    assert check_sphere_decomposition(petersen, 0, f, 6)  # 96 elements at radius 6
    assert check_sphere_decomposition(edgeless, 0, f0, 100)  # empty spheres stay allowed


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


def test_doob_transfer_averages_equal_enumeration(k4, k34):
    # check_doob_condition reads its arc averages from the transfer operator;
    # at every extreme-eigenvalue column they equal the enumerated ones
    for g, extreme in ((k4, -0.5), (k34, -0.4)):
        decomp = spectral.eig_sym(spectral.edge_laplacian(g))
        k_ext = [k for k, mu in enumerate(decomp.distinct) if abs(mu - extreme) < 1e-9][0]
        basis = decomp.group_basis(k_ext)
        for col in range(basis.shape[1]):
            f = ScalarField(EDGES, basis[:, col])
            for base in (0, g.half_edge_count - 1):
                sizes, sums = cover.arc_edge_sums(g, f, base, 10)
                layers = list(cover.arc_edge_layers(g, base, 10))
                assert sizes == [len(layer) for layer in layers]
                for s, n, layer in zip(sums, sizes, layers):
                    assert s / n == pytest.approx(cover.set_average(f, layer), abs=1e-12)


def test_doob_condition_vacuous(k4):
    # a decomposition without the extreme eigenvalue passes vacuously
    lap = spectral.edge_laplacian(k4)
    decomp = spectral.eig_sym(lap)
    keep = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 0.5) > 1e-9]
    slices = tuple(decomp.group_slices[k] for k in keep)
    truncated = spectral.SpectralDecomposition(
        decomp.support, decomp.eigenvalues, decomp.basis, slices)
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
