import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertree import cover, graph_core, spectral
from covertree.cover import EDGES, VERTICES, ScalarField
from covertree.errors import (
    BipartiteEigenvalueError,
    ClassificationMismatchError,
    EigenvalueOutOfRangeError,
    ForbiddenGapEigenvalueError,
    NotRegularError,
    NotSimpleError,
    OnlyConstantSpectrumError,
    SupportMismatchError,
    UnsupportedDegreeStructureError,
)
from covertree.spectral import (
    EXACT_GEOMETRIC,
    ONE_STEP,
    POLYNOMIAL_FACTOR,
    RegularEdge,
    RegularVertex,
    SemiregularEdge,
    characteristic_roots_regular_edge,
    characteristic_roots_regular_vertex,
    critical_point,
    decay_rate_regular_edge,
    decay_rate_regular_vertex,
    decay_rate_semiregular_edge,
    discriminant_roots,
    edge_laplacian,
    eig_sym,
    forbidden_gap,
    fourier_coefficients,
    radial_series,
    rate_prediction,
    transfer_eigenvalues,
    transfer_matrix,
    vertex_laplacian,
    write_spectrum_csv,
)

PQ_GRID = [(p, q) for p in (2, 3, 4, 5) for q in (2, 3, 4, 5)]


def _spectrum(decomp):
    return {round(mu, 9): decomp.multiplicity(k) for k, mu in enumerate(decomp.distinct)}


# --- Laplacian construction ---

def test_vertex_laplacian_k4(k4):
    lap = vertex_laplacian(k4)
    assert lap.divisor == 3
    assert np.allclose(lap.matrix, lap.matrix.T, atol=1e-14)
    assert np.allclose(lap.matrix.sum(axis=1), 1.0)
    assert _spectrum(eig_sym(lap)) == {1.0: 1, round(-1 / 3, 9): 3}


def test_vertex_laplacian_petersen(petersen):
    got = _spectrum(eig_sym(vertex_laplacian(petersen)))
    assert got == {1.0: 1, round(1 / 3, 9): 5, round(-2 / 3, 9): 4}


def test_vertex_laplacian_bipartite_has_minus_one(k33):
    decomp = eig_sym(vertex_laplacian(k33))
    assert min(decomp.distinct) == pytest.approx(-1.0, abs=1e-12)


def test_vertex_laplacian_loops_count_double():
    g = graph_core.build_graph(1, [(0, 0)], allows_loops=True)
    lap = vertex_laplacian(g)
    assert lap.matrix[0, 0] == 1.0 and lap.divisor == 2


def test_vertex_laplacian_not_regular():
    g = graph_core.build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegularError):
        vertex_laplacian(g)


def test_edge_laplacian_k4(k4):
    lap = edge_laplacian(k4)
    assert lap.divisor == 4
    assert _spectrum(eig_sym(lap)) == {1.0: 1, 0.0: 3, -0.5: 2}


def test_edge_laplacian_k34(k34):
    lap = edge_laplacian(k34)
    assert lap.divisor == 5
    assert _spectrum(eig_sym(lap)) == {1.0: 1, 0.4: 2, 0.2: 3, -0.4: 6}


def test_edge_laplacian_eigenvalue_floor(k4, k33, k34):
    # line-graph adjacency eigenvalues are never below -2
    for g, lo in ((k4, -0.5), (k33, -0.5), (k34, -0.4)):
        decomp = eig_sym(edge_laplacian(g))
        assert min(decomp.distinct) >= lo - 1e-12


def test_edge_laplacian_rejections(k23):
    with pytest.raises(NotSimpleError):
        edge_laplacian(graph_core.build_graph(2, [(0, 1), (0, 1)], allows_multi=True))
    with pytest.raises(UnsupportedDegreeStructureError):
        edge_laplacian(graph_core.generate("cycle_with_chords", 6))
    with pytest.raises(UnsupportedDegreeStructureError):
        edge_laplacian(k23)  # p = 1


# --- eigensolver ---

def test_eig_sym_two_by_two():
    lap = spectral.LaplacianMatrix(spectral.VERTEX, np.array([[0.0, 1.0], [1.0, 0.0]]), 1)
    decomp = eig_sym(lap)
    assert np.allclose(decomp.eigenvalues, [-1.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("builder", [
    lambda g: vertex_laplacian(g),
    lambda g: edge_laplacian(g),
])
def test_eig_sym_invariants(petersen, builder):
    lap = builder(petersen)
    decomp = eig_sym(lap)
    n = lap.size
    # residual per pair
    res = lap.matrix @ decomp.basis - decomp.basis * decomp.eigenvalues
    assert np.max(np.abs(res)) <= 1e-10
    # reconstruction
    assert np.max(np.abs(decomp.reconstruct() - lap.matrix)) <= 1e-9
    # orthonormal basis, idempotent mutually orthogonal projections
    assert np.max(np.abs(decomp.basis.T @ decomp.basis - np.eye(n))) <= 1e-9
    for k in range(len(decomp.distinct)):
        pk = decomp.projection(k)
        assert np.max(np.abs(pk @ pk - pk)) <= 1e-9
        for j in range(k):
            assert np.max(np.abs(pk @ decomp.projection(j))) <= 1e-9
    # matches an independent dense solver
    assert np.allclose(np.sort(decomp.eigenvalues),
                       np.linalg.eigvalsh(lap.matrix), atol=1e-10)


@pytest.mark.parametrize("case", ["cubic-60", "cubic-120", "cubic-240",
                                  "petersen-edge", "k34-edge"])
def test_eig_sym_residual_orthonormality_order(case, request, seeded_cubic):
    if case.startswith("cubic"):
        n = int(case.split("-")[1])
        lap = vertex_laplacian(seeded_cubic(n, n))
    else:
        lap = edge_laplacian(request.getfixturevalue(case.split("-")[0]))
    decomp = eig_sym(lap)
    v, w = decomp.basis, decomp.eigenvalues
    assert np.max(np.abs(lap.matrix @ v - v * w)) <= 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(lap.size))) <= 1e-12
    assert np.all(np.diff(w) >= 0)


def test_eig_sym_trivial_eigenvalue_simple(k4, petersen, k33, k34):
    for g, lap in ((k4, vertex_laplacian(k4)), (petersen, vertex_laplacian(petersen)),
                   (k33, vertex_laplacian(k33)), (k34, edge_laplacian(k34))):
        decomp = eig_sym(lap)
        k_one = max(range(len(decomp.distinct)), key=lambda k: decomp.distinct[k])
        assert decomp.distinct[k_one] == pytest.approx(1.0, abs=1e-12)
        assert decomp.multiplicity(k_one) == 1
        vec = decomp.group_basis(k_one)[:, 0]
        assert np.allclose(vec, vec[0], atol=1e-9)  # constant eigenvector


# --- Fourier coefficients ---

def test_fourier_constant_field(k4):
    decomp = eig_sym(vertex_laplacian(k4))
    f = cover.constant_field(k4, VERTICES, 3.0)
    _, norms = fourier_coefficients(f, decomp)
    for k, mu in enumerate(decomp.distinct):
        if abs(mu - 1.0) < 1e-9:
            assert norms[k] == pytest.approx(6.0, abs=1e-12)
        else:
            assert norms[k] <= 1e-12


def test_fourier_basis_vector(petersen):
    decomp = eig_sym(vertex_laplacian(petersen))
    f = ScalarField(VERTICES, decomp.basis[:, 2])
    coeffs, _ = fourier_coefficients(f, decomp)
    expected = np.zeros(10)
    expected[2] = 1.0
    assert np.allclose(coeffs, expected, atol=1e-10)


def test_fourier_indicator_projection_norm(k4):
    decomp = eig_sym(vertex_laplacian(k4))
    f = cover.indicator_field(k4, VERTICES, 0)
    _, norms = fourier_coefficients(f, decomp)
    by_mu = {round(mu, 9): norms[k] for k, mu in enumerate(decomp.distinct)}
    assert by_mu[round(-1 / 3, 9)] ** 2 == pytest.approx(0.75, abs=1e-12)


def test_fourier_support_mismatch(k4):
    decomp = eig_sym(vertex_laplacian(k4))
    with pytest.raises(SupportMismatchError):
        fourier_coefficients(cover.constant_field(k4, EDGES, 1.0), decomp)


# --- decay rates: regular vertex ---

def test_vertex_rate_cases():
    beta, kind = decay_rate_regular_vertex(-1 / 3, 2)
    assert (beta, kind) == (2 ** -0.5, EXACT_GEOMETRIC)
    # repeated-root threshold |mu| = 2 sqrt(q) / (q+1)
    beta, kind = decay_rate_regular_vertex(2 * math.sqrt(2) / 3, 2)
    assert beta == pytest.approx(2 ** -0.5) and kind == POLYNOMIAL_FACTOR
    beta, kind = decay_rate_regular_vertex(0.99, 2)
    assert beta == pytest.approx((3 * 0.99 + math.sqrt(9 * 0.99 ** 2 - 8)) / 4)
    assert kind == EXACT_GEOMETRIC
    assert decay_rate_regular_vertex(1.0, 2) == (0.0, ONE_STEP)
    with pytest.raises(BipartiteEigenvalueError):
        decay_rate_regular_vertex(-1.0, 2)
    with pytest.raises(EigenvalueOutOfRangeError):
        decay_rate_regular_vertex(1.5, 2)


def test_vertex_roots_satisfy_characteristic_polynomial():
    mu, q = 0.99, 2
    hi, lo, d = characteristic_roots_regular_vertex(mu, q)
    assert d > 0
    for x in (hi, lo):
        assert x * x - (q + 1) / q * mu * x + 1 / q == pytest.approx(0.0, abs=1e-12)


@given(st.floats(-0.999, 0.999), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_vertex_root_product_is_one_over_q(mu, q):
    hi, lo, _ = characteristic_roots_regular_vertex(mu, q)
    assert abs(hi * lo - 1 / q) <= 1e-10


# --- decay rates: regular edge ---

def test_edge_rate_cases():
    assert decay_rate_regular_edge(-0.5, 2) == (0.5, EXACT_GEOMETRIC)
    beta, kind = decay_rate_regular_edge(0.0, 2)
    assert (beta, kind) == (2 ** -0.5, EXACT_GEOMETRIC)
    assert decay_rate_regular_edge(1.0, 2) == (0.0, ONE_STEP)
    with pytest.raises(EigenvalueOutOfRangeError):
        decay_rate_regular_edge(-0.75, 2)


def test_edge_root_at_doob_eigenvalue_has_modulus_one():
    # before the vanishing-star correction one root sits on the unit circle
    for q in (2, 3, 4, 5):
        hi, lo, d = characteristic_roots_regular_edge(-1 / q, q)
        assert d > 0
        assert abs(lo) == pytest.approx(1.0, abs=1e-12)
        assert abs(hi) == pytest.approx(1 / q, abs=1e-12)


@given(st.floats(0, 1).map(lambda t: t), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_edge_roots_satisfy_characteristic_polynomial(t, q):
    mu = -1 / q + t * (1 + 1 / q)  # inside [-1/q, 1]
    hi, lo, _ = characteristic_roots_regular_edge(mu, q)
    for x in (hi, lo):
        val = x * x + (q - 1 - 2 * mu * q) / q * x + 1 / q
        assert abs(val) <= 1e-10
    assert abs(hi * lo - 1 / q) <= 1e-10


# --- semiregular transfer matrix ---

@pytest.mark.parametrize("p,q", PQ_GRID)
def test_transfer_matrix_eigenvalues_match(p, q):
    rng = np.random.default_rng(p * 10 + q)
    for mu in rng.uniform(-2 / (p + q), 1.0, size=20):
        t_plus, t_minus, d = transfer_eigenvalues(mu, p, q)
        got = sorted(np.linalg.eigvals(transfer_matrix(mu, p, q)), key=lambda z: (z.real, z.imag))
        want = sorted([complex(t_plus), complex(t_minus)], key=lambda z: (z.real, z.imag))
        assert np.allclose(got, want, atol=1e-10)
        assert abs(t_plus * t_minus - 1 / (p * q)) <= 1e-12
        assert np.linalg.det(transfer_matrix(mu, p, q)) == pytest.approx(1 / (p * q), abs=1e-12)


@pytest.mark.parametrize("p,q", PQ_GRID)
def test_transfer_identities_at_special_points(p, q):
    # unit eigenvalue at both spectrum endpoints, with the cospectral partner 1/(pq)
    for mu in (1.0, -2 / (p + q)):
        t_plus, t_minus, _ = transfer_eigenvalues(mu, p, q)
        assert t_plus == pytest.approx(1.0, abs=1e-12)
        assert abs(t_minus) == pytest.approx(1 / (p * q), abs=1e-12)
    # at the gap boundaries the moduli are exactly {1/p, 1/q}
    for mu in ((p - 1) / (p + q), (q - 1) / (p + q)):
        t_plus, t_minus, _ = transfer_eigenvalues(mu, p, q)
        assert sorted([abs(t_plus), abs(t_minus)]) == pytest.approx(
            sorted([1 / p, 1 / q]), abs=1e-12)
    # double roots have modulus (pq)**-1/2; assert on the root centre, since
    # evaluating t at a float approximation of the double root loses half the
    # working precision through the square root of the ~1e-13 discriminant
    roots = discriminant_roots(p, q)
    for mu in roots:
        t_plus, t_minus, d = transfer_eigenvalues(mu, p, q)
        assert abs(d) <= 1e-9
        centre = (t_plus + t_minus) / 2
        assert abs(centre) == pytest.approx((p * q) ** -0.5, abs=1e-12)


@pytest.mark.parametrize("p,q", PQ_GRID)
def test_discriminant_root_ordering_and_critical_point(p, q):
    r = discriminant_roots(p, q)
    assert r.m_minus_plus < r.m_minus_minus <= r.m_plus_minus < r.m_plus_plus
    assert -2 / (p + q) <= r.m_minus_plus and r.m_plus_plus <= 1.0
    gap_lo, gap_hi = forbidden_gap(p, q)
    m_prime = critical_point(p, q)
    assert gap_lo <= m_prime <= gap_hi
    assert r.m_minus_minus < gap_lo + 1e-12 and gap_hi - 1e-12 < r.m_plus_minus


@pytest.mark.parametrize("p,q", PQ_GRID)
def test_transfer_moduli_monotone_regions(p, q):
    # on each region with positive discriminant, |t| never exceeds the endpoint max
    r = discriminant_roots(p, q)
    gap_lo, gap_hi = forbidden_gap(p, q)
    regions = [(-2 / (p + q), r.m_minus_plus), (r.m_plus_plus, 1.0),
               (r.m_minus_minus, gap_lo), (gap_hi, r.m_plus_minus)]
    for lo, hi in regions:
        if hi <= lo:
            continue
        grid = np.linspace(lo, hi, 1000)
        for pick in (0, 1):
            vals = [abs(transfer_eigenvalues(mu, p, q)[pick]) for mu in grid]
            cap = max(vals[0], vals[-1])
            assert max(vals) <= cap + 1e-12


def test_semiregular_rate_cases():
    p, q = 2, 3
    beta, kind = decay_rate_semiregular_edge(-2 / (p + q), p, q)
    assert (beta, kind) == (6 ** -0.5, EXACT_GEOMETRIC)
    # mu = 1/5 sits on the gap boundary: transfer moduli are {1/2, 1/3},
    # per-radius rate is the square root of the larger one
    beta, kind = decay_rate_semiregular_edge(0.2, p, q)
    assert beta == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert kind == EXACT_GEOMETRIC
    beta, kind = decay_rate_semiregular_edge(0.4, p, q)
    assert beta == pytest.approx(math.sqrt(0.5), abs=1e-12)
    # negative-discriminant eigenvalue
    beta, kind = decay_rate_semiregular_edge(0.0, p, q)
    assert (beta, kind) == (6 ** -0.25, EXACT_GEOMETRIC)
    assert decay_rate_semiregular_edge(1.0, p, q) == (0.0, ONE_STEP)
    with pytest.raises(ForbiddenGapEigenvalueError):
        decay_rate_semiregular_edge(critical_point(p, q), p, q)
    with pytest.raises(EigenvalueOutOfRangeError):
        decay_rate_semiregular_edge(-0.5, p, q)


# --- radial recursion ---

def test_radial_series_constant_fixed_point():
    for regime in (RegularVertex(2), RegularEdge(2), SemiregularEdge(2, 3)):
        series = radial_series(2.0, 2.0, 1.0, regime, 10)
        assert series == pytest.approx([2.0] * 11, abs=1e-12)


def test_radial_series_doob_regular_edge():
    q = 2
    f0 = 0.7
    series = radial_series(f0, -f0 / q, -1 / q, RegularEdge(q), 12)
    expected = [f0 * (-1 / q) ** n for n in range(13)]
    assert series == pytest.approx(expected, abs=1e-12)


def _brute_arc_averages_vertex(g, f, base, n_max):
    return [cover.set_average(f, layer)
            for layer in cover.arc_vertex_layers(g, base, n_max)]


def _brute_arc_averages_edge(g, f, base, n_max):
    return [cover.set_average(f, layer)
            for layer in cover.arc_edge_layers(g, base, n_max)]


def test_radial_series_matches_brute_force_vertex(k4):
    # every eigenvector, every base half-edge
    decomp = eig_sym(vertex_laplacian(k4))
    for k, mu in enumerate(decomp.distinct):
        for col in range(decomp.multiplicity(k)):
            f = ScalarField(VERTICES, decomp.group_basis(k)[:, col])
            for base in range(k4.half_edge_count):
                brute = _brute_arc_averages_vertex(k4, f, base, 12)
                predicted = radial_series(brute[0], brute[1], mu, RegularVertex(2), 12)
                assert brute == pytest.approx(predicted, abs=1e-9)


def test_radial_series_matches_brute_force_semiregular(k34):
    decomp = eig_sym(edge_laplacian(k34))
    bases = [k34.half_edge(0, 3), k34.half_edge(3, 0)]  # one per orientation
    for k, mu in enumerate(decomp.distinct):
        f = ScalarField(EDGES, decomp.group_basis(k)[:, 0])
        for base in bases:
            p_base = k34.degree(k34.tail(base)) - 1
            q_far = k34.degree(k34.head(base)) - 1
            brute = _brute_arc_averages_edge(k34, f, base, 8)
            predicted = radial_series(brute[0], brute[1], mu,
                                      SemiregularEdge(p_base, q_far), 8)
            assert brute == pytest.approx(predicted, abs=1e-10)


def test_transfer_matrix_advances_radial_pairs(k34):
    decomp = eig_sym(edge_laplacian(k34))
    base = k34.half_edge(3, 0)
    p_base = k34.degree(3) - 1
    q_far = k34.degree(0) - 1
    for k, mu in enumerate(decomp.distinct):
        f = ScalarField(EDGES, decomp.group_basis(k)[:, 0])
        series = _brute_arc_averages_edge(k34, f, base, 7)
        a = transfer_matrix(mu, p_base, q_far)
        for j in range(1, 3):
            prev = np.array([series[2 * j - 1], series[2 * j - 2]])
            nxt = np.array([series[2 * j + 1], series[2 * j]])
            assert np.allclose(a @ prev, nxt, atol=1e-10)


# --- rate prediction ---

def test_rate_prediction_k4(k4):
    f = cover.indicator_field(k4, VERTICES, 0)
    pred = rate_prediction(k4, 1, f)
    assert pred.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    assert pred.beta_max_kind == EXACT_GEOMETRIC
    assert pred.active_only


def test_rate_prediction_petersen_generic(petersen):
    from covertree.cli import random_field

    pred = rate_prediction(petersen, 1, random_field(petersen, VERTICES, 1))
    assert pred.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    # without a field: maximise over the whole spectrum (the mixing rate)
    pred_all = rate_prediction(petersen, 1)
    assert pred_all.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    assert not pred_all.active_only


def test_rate_prediction_deactivation_lowers_rate(k4):
    # a field supported on the -1/2 edge eigenspace deactivates the mu = 0
    # eigenspace whose rate 2**-1/2 would otherwise dominate
    decomp = eig_sym(edge_laplacian(k4))
    k_half = [k for k, mu in enumerate(decomp.distinct) if abs(mu + 0.5) < 1e-9][0]
    f = ScalarField(EDGES, decomp.group_basis(k_half)[:, 0])
    pred = rate_prediction(k4, 2, f)
    assert pred.beta_max == pytest.approx(0.5, abs=1e-12)
    generic = rate_prediction(k4, 2)
    assert generic.beta_max == pytest.approx(2 ** -0.5, abs=1e-12)
    assert pred.beta_max < generic.beta_max


def test_rate_prediction_k34(k34):
    pred = rate_prediction(k34, 3)
    assert pred.beta_max == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert pred.row_for(-0.4).beta == pytest.approx(6 ** -0.5, abs=1e-12)


def test_rate_prediction_errors(k4, k33, k23):
    with pytest.raises(ClassificationMismatchError):
        rate_prediction(k33, 1)  # bipartite excluded from the vertex regime
    with pytest.raises(ClassificationMismatchError):
        rate_prediction(k23, 3)  # p = 1
    with pytest.raises(OnlyConstantSpectrumError):
        rate_prediction(k4, 1, cover.constant_field(k4, VERTICES, 1.0))


def test_spectrum_csv(k34):
    pred = rate_prediction(k34, 3)
    text = write_spectrum_csv(pred)
    lines = text.splitlines()
    assert lines[0] == "mu,multiplicity,beta,kind,active"
    assert len(lines) == 1 + 4
    assert text == write_spectrum_csv(rate_prediction(k34, 3))  # deterministic
    row = [l for l in lines[1:] if float(l.split(",")[0]) == pytest.approx(-0.4, abs=1e-9)][0]
    cols = row.split(",")
    assert cols[1] == "6" and cols[4] == "true"
    assert float(cols[2]) == pytest.approx(6 ** -0.5, abs=1e-12)
